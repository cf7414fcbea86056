//! Property tests of the simulated device: transfer integrity for
//! arbitrary offsets/sizes, allocation accounting under random
//! alloc/free sequences, and cost monotonicity.

use proptest::prelude::*;
use rbamr_device::{Device, Stream};
use rbamr_perfmodel::{Category, KernelShape};
use std::panic::AssertUnwindSafe;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Upload then download over any in-bounds window is the identity,
    /// and bytes are counted exactly.
    #[test]
    fn windowed_transfer_roundtrip(
        len in 1usize..2048,
        off_frac in 0.0f64..1.0,
        win_frac in 0.0f64..1.0,
    ) {
        let dev = Device::k20x();
        let mut buf = dev.alloc::<f64>(len);
        let offset = ((len - 1) as f64 * off_frac) as usize;
        let window = 1 + ((len - offset - 1) as f64 * win_frac) as usize;
        let src: Vec<f64> = (0..window).map(|i| i as f64 * 0.5 - 3.0).collect();
        dev.reset_transfer_stats();
        dev.upload(&mut buf, offset, &src, Category::Other);
        let mut out = vec![0.0; window];
        dev.download(&buf, offset, &mut out, Category::Other);
        prop_assert_eq!(&out, &src);
        let s = dev.stats();
        prop_assert_eq!(s.h2d_bytes, (window * 8) as u64);
        prop_assert_eq!(s.d2h_bytes, (window * 8) as u64);
        // Untouched prefix remains zero.
        if offset > 0 {
            let mut head = vec![9.0; offset];
            dev.download(&buf, 0, &mut head, Category::Other);
            prop_assert!(head.iter().all(|&v| v == 0.0));
        }
    }

    /// Allocation gauge: any sequence of allocs and frees leaves the
    /// gauge equal to the live total, and the peak equals the true
    /// high-water mark.
    #[test]
    fn allocation_accounting(ops in prop::collection::vec((1usize..4096, any::<bool>()), 1..30)) {
        let dev = Device::k20x();
        let mut live = Vec::new();
        let mut live_bytes = 0u64;
        let mut peak = 0u64;
        for (len, free_one) in ops {
            if free_one && !live.is_empty() {
                let (buf, bytes): (rbamr_device::DeviceBuffer<f64>, u64) = live.pop().unwrap();
                drop(buf);
                live_bytes -= bytes;
            } else {
                let buf = dev.alloc::<f64>(len);
                let bytes = (len * 8) as u64;
                live_bytes += bytes;
                peak = peak.max(live_bytes);
                live.push((buf, bytes));
            }
            prop_assert_eq!(dev.stats().allocated_bytes, live_bytes);
        }
        prop_assert_eq!(dev.stats().peak_allocated_bytes, peak);
    }

    /// Kernel cost is monotone in the work size and bounded below by
    /// the launch latency.
    #[test]
    fn kernel_cost_monotone(a in 1i64..1_000_000, b in 1i64..1_000_000) {
        let dev = Device::k20x();
        let (small, big) = (a.min(b), a.max(b));
        let launch = |cells| {
            let shape = KernelShape::streaming(cells, 3, 5);
            dev.launch_named(&Stream, "test", Category::HydroKernel, shape, |_k| ());
        };
        let t0 = dev.clock().total();
        launch(small);
        let t1 = dev.clock().total();
        launch(big);
        let t2 = dev.clock().total();
        let (c_small, c_big) = (t1 - t0, t2 - t1);
        prop_assert!(c_big >= c_small);
        let latency = dev.cost_model().machine().device().kernel_latency;
        prop_assert!(c_small >= latency);
    }
}

#[test]
fn capacity_is_a_hard_limit_across_many_buffers() {
    let dev = Device::k20x();
    let cap = dev.cost_model().machine().device().memory_bytes;
    let chunk = (cap / 4) as usize; // bytes
    let b1 = dev.alloc::<u8>(chunk);
    let b2 = dev.alloc::<u8>(chunk);
    let b3 = dev.alloc::<u8>(chunk);
    // A fourth chunk plus one byte must fail...
    let over = std::panic::catch_unwind(AssertUnwindSafe(|| dev.alloc::<u8>(chunk + 1)));
    assert!(over.is_err());
    // ...and the failed attempt must not leak gauge bytes.
    assert_eq!(dev.stats().allocated_bytes, 3 * chunk as u64);
    drop((b1, b2, b3));
    assert_eq!(dev.stats().allocated_bytes, 0);
}
