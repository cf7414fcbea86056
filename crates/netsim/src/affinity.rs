//! The OS calls that make a run slot a CPU (DESIGN §11): read the
//! process's CPU set, name a carrier thread, and pin a thread to one
//! CPU. Linux only; elsewhere the set is empty, so no slot is bound and
//! nothing is pinned.

/// A kernel thread id (`pid_t`).
pub(crate) type Tid = i32;

#[cfg(target_os = "linux")]
mod sys {
    use super::Tid;

    /// glibc's `cpu_set_t`: a fixed mask of 1,024 CPUs.
    type CpuSet = [u64; 16];

    const BITS: usize = u64::BITS as usize;

    extern "C" {
        fn sched_getaffinity(pid: Tid, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: Tid, size: usize, mask: *const CpuSet) -> i32;
        fn getpid() -> Tid;
        fn gettid() -> Tid;
    }

    /// The CPUs thread `tid` may run on, ascending (`0` = the caller);
    /// empty if the mask cannot be read.
    pub(super) fn cpus_of(tid: Tid) -> Vec<usize> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
        if unsafe { sched_getaffinity(tid, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
            return Vec::new();
        }
        (0..mask.len() * BITS).filter(|&cpu| (mask[cpu / BITS] >> (cpu % BITS)) & 1 == 1).collect()
    }

    pub(super) fn process() -> Tid {
        // SAFETY: no arguments, cannot fail.
        unsafe { getpid() }
    }

    pub(super) fn current() -> Tid {
        // SAFETY: no arguments, cannot fail.
        unsafe { gettid() }
    }

    pub(super) fn pin(tid: Tid, cpu: usize) {
        let mut mask: CpuSet = [0; 16];
        let Some(word) = mask.get_mut(cpu / BITS) else { return };
        *word = 1 << (cpu % BITS);
        // SAFETY: `mask` is a `cpu_set_t` of the size passed. A failed
        // call (the thread has exited, the CPU left the set) only loses
        // a placement hint: the thread runs wherever the OS puts it, as
        // every carrier did before slots were CPUs.
        let _ = unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &mask) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    use super::Tid;

    pub(super) fn cpus_of(_tid: Tid) -> Vec<usize> {
        Vec::new()
    }

    pub(super) fn process() -> Tid {
        0
    }

    pub(super) fn current() -> Tid {
        0
    }

    pub(super) fn pin(_tid: Tid, _cpu: usize) {}
}

/// The process's CPUs, ascending: the main thread's mask (a thread id
/// equal to the process id names the main thread). A pinned caller
/// reads the same set as any other thread. Empty off Linux.
pub(crate) fn process_cpus() -> Vec<usize> {
    sys::cpus_of(sys::process())
}

/// The calling thread's CPUs, ascending.
#[cfg(all(test, target_os = "linux"))]
pub(crate) fn current_cpus() -> Vec<usize> {
    sys::cpus_of(0)
}

/// The calling thread's id, for [`pin`] to name it from another thread.
pub(crate) fn current_tid() -> Tid {
    sys::current()
}

/// Restrict thread `tid` to `cpu`.
pub(crate) fn pin(tid: Tid, cpu: usize) {
    sys::pin(tid, cpu)
}
