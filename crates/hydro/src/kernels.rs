//! The CloverLeaf numerical kernels as pure, data-parallel functions.
//!
//! Every kernel here is shared verbatim by all placements: the level
//! executor calls them on `HostData` slices directly and on
//! `DeviceBuffer` slices *inside* `Device::launch` — so the CPU baseline
//! and the GPU-resident build execute identical arithmetic and any
//! divergence between the two is a residency/communication bug, not a
//! numerics bug.
//!
//! Each kernel is one independent computation per output element — the
//! CUDA one-thread-per-element formulation the paper uses — written as a
//! unit-stride sweep over rows. [`par_rows`] hands the body one output
//! row of the region and its [`Window`]; the body slices that window, or
//! one shifted by a stencil offset, out of each input once
//! ([`View::row`]; [`View::row_c`] and `unclamped` where a tap is
//! clamped at the edge of allocated data) and runs `x` over equal-length
//! slices: one index computation and one containment check per row
//! window, none per tap, and the `axis` / `sweep` selections are made
//! before the `x` loop, not in it. Every element keeps one fixed
//! expression tree (no regrouping, no fused multiply-add), so a result
//! does not depend on how a region is cut into rows and windows — which
//! is what keeps host = device and Interior + Boundary = Full bitwise.
//!
//! Rows are written through disjoint slices and are independent, so a
//! row driver that covers at least [`SPLIT_CELLS`] cells cuts its rows in
//! two and runs the halves with `rayon::join`, recursively, on whatever
//! cores are free; smaller calls run on the calling thread. No bit
//! depends on the cut: every element keeps its expression tree, and
//! [`calc_dt`] and [`field_summary`] keep one value per row and fold
//! those in row order once every row is done.

use rbamr_geometry::{GBox, IntVector};

/// Read-only view of a row-major field.
#[derive(Clone, Copy)]
pub struct View<'a> {
    /// The values, row-major over `dbox`.
    pub data: &'a [f64],
    /// The index box the array covers.
    pub dbox: GBox,
}

impl<'a> View<'a> {
    /// Construct, checking the length.
    pub fn new(data: &'a [f64], dbox: GBox) -> Self {
        debug_assert_eq!(data.len(), dbox.num_cells() as usize, "View: shape mismatch");
        Self { data, dbox }
    }

    /// The window `[x0, x1)` of row `y`.
    ///
    /// # Panics
    /// Panics, in every profile, unless the window lies inside row `y`
    /// of the box: the flat index of a window that leaves its row is
    /// still inside the array, so it would silently read the next row.
    #[inline]
    pub fn row(&self, y: i64, x0: i64, x1: i64) -> &'a [f64] {
        let b = self.dbox;
        assert!(
            b.lo.x <= x0 && x0 <= x1 && x1 <= b.hi.x && b.lo.y <= y && y < b.hi.y,
            "View::row [{x0},{x1}) of row {y} outside {b:?}"
        );
        let base = ((y - b.lo.y) * b.size().x + (x0 - b.lo.x)) as usize;
        &self.data[base..base + (x1 - x0) as usize]
    }

    /// Row `y` for taps clamped into the box (one-sided stencils at the
    /// edge of allocated data): element `i` of the result stands for
    /// the value at `(x0 + i, y)` with both coordinates clamped.
    #[inline]
    pub fn row_c(&self, y: i64, x0: i64) -> RowC<'a> {
        let b = self.dbox;
        RowC { row: self.row(y.clamp(b.lo.y, b.hi.y - 1), b.lo.x, b.hi.x), start: x0 - b.lo.x }
    }
}

/// A whole row and a window of it whose elements are read through an
/// `x` clamp — see [`View::row_c`] and `unclamped`.
#[derive(Clone, Copy)]
pub struct RowC<'a> {
    row: &'a [f64],
    /// Index in `row` of the window's first element; may lie outside it.
    start: i64,
}

impl RowC<'_> {
    /// Element `i` of the window, clamped into the row.
    #[inline]
    fn clamped(&self, i: usize) -> f64 {
        self.row[(self.start + i as i64).max(0).min(self.row.len() as i64 - 1) as usize]
    }
}

/// The 2 × 2 blocks of a field whose lower-left elements are a row
/// window: `bl[i]`, `br[i]`, `tl[i]`, `tr[i]` are the values at
/// `(x0 + i, y)`, `(x0 + i + 1, y)`, `(x0 + i, y + 1)` and
/// `(x0 + i + 1, y + 1)` — the four nodes of a cell, or the four cells
/// around a node.
#[derive(Clone, Copy)]
struct Quad<'a> {
    bl: &'a [f64],
    br: &'a [f64],
    tl: &'a [f64],
    tr: &'a [f64],
}

impl Quad<'_> {
    /// The blocks with `axis` as the first index: transposed for
    /// `axis == 1`, so `br` is always the next element along `axis`.
    #[inline]
    fn along(self, axis: usize) -> Self {
        if axis == 0 {
            self
        } else {
            Quad { br: self.tl, tl: self.br, ..self }
        }
    }

    /// Largest magnitude of block `i`. (`always`, here and on the other
    /// per-element helpers: left to its own judgement the compiler makes
    /// some of them a call per element, which costs more than the
    /// arithmetic and stops the `x` loop vectorising.)
    #[inline(always)]
    fn abs_max(&self, i: usize) -> f64 {
        self.bl[i].abs().max(self.br[i].abs()).max(self.tl[i].abs()).max(self.tr[i].abs())
    }
}

/// One row of a kernel's region — the window `[x0, x1)` of row `y` —
/// and what a kernel body slices with it: the same window of an input
/// field, or one moved by a stencil offset.
#[derive(Clone, Copy)]
pub struct Window {
    y: i64,
    x0: i64,
    x1: i64,
}

impl Window {
    /// The window moved by `(dx, dy)`.
    #[inline]
    fn shift(self, dx: i64, dy: i64) -> Self {
        Window { y: self.y + dy, x0: self.x0 + dx, x1: self.x1 + dx }
    }

    /// The window moved `k` elements along `axis`.
    #[inline]
    fn step(self, axis: usize, k: i64) -> Self {
        if axis == 0 {
            self.shift(k, 0)
        } else {
            self.shift(0, k)
        }
    }

    /// This window of `f` ([`View::row`]).
    #[inline]
    fn row<'a>(self, f: View<'a>) -> &'a [f64] {
        f.row(self.y, self.x0, self.x1)
    }

    /// This window of `f`, read through clamps ([`View::row_c`]).
    #[inline]
    fn row_c<'a>(self, f: View<'a>) -> RowC<'a> {
        f.row_c(self.y, self.x0)
    }

    /// The 2 × 2 blocks of `f` whose lower-left elements are this window.
    #[inline]
    fn quad<'a>(self, f: View<'a>) -> Quad<'a> {
        let (y, x0, x1) = (self.y, self.x0, self.x1);
        let (lo, hi) = (f.row(y, x0, x1 + 1), f.row(y + 1, x0, x1 + 1));
        let n = (x1 - x0) as usize;
        Quad { bl: &lo[..n], br: &lo[1..], tl: &hi[..n], tr: &hi[1..] }
    }
}

/// Cells from which a row driver splits its rows across threads, into
/// pieces of at least half this. No region of a 16² patch reaches it. A
/// smaller piece costs about as much to hand to another thread as it
/// saves; a larger threshold keeps more of a big patch's calls on one
/// core.
const SPLIT_CELLS: usize = 4096;

/// Calls `f(y, row)` for each row of `out` — rows of `w` values, the
/// first of them row `y` — on the calling thread, or, while there are at
/// least two rows and `row_cells` × rows ≥ [`SPLIT_CELLS`], on the two
/// halves of the rows through `rayon::join`.
fn split_rows<T: Send>(
    out: &mut [T],
    w: usize,
    y: i64,
    row_cells: usize,
    f: &(impl Fn(i64, &mut [T]) + Sync),
) {
    let rows = out.len() / w;
    if rows < 2 || rows * row_cells < SPLIT_CELLS {
        for (r, row) in out.chunks_mut(w).enumerate() {
            f(y + r as i64, row);
        }
        return;
    }
    let (lo, hi) = out.split_at_mut(rows / 2 * w);
    let mid = y + (rows / 2) as i64;
    rayon::join(|| split_rows(lo, w, y, row_cells, f), || split_rows(hi, w, mid, row_cells, f));
}

/// Row driver of every array-writing kernel: for each row of `region`
/// ([`split_rows`]), `f(out, window)` receives the region's window of
/// that row of an array laid out over `obox`, and the window itself.
///
/// # Panics
/// Panics, in every profile, if `out` does not hold exactly the cells of
/// `obox` or `region` is not inside `obox`.
pub fn par_rows(
    out: &mut [f64],
    obox: GBox,
    region: GBox,
    f: impl Fn(&mut [f64], Window) + Sync + Send,
) {
    let len = out.len();
    assert_eq!(len, obox.num_cells() as usize, "par_rows: output of {len} values for {obox:?}");
    if region.is_empty() {
        return;
    }
    assert!(obox.contains_box(region), "par_rows: region {region:?} escapes {obox:?}");
    let w = obox.size().x as usize;
    let first = (region.lo.y - obox.lo.y) as usize;
    let rows = &mut out[first * w..(first + region.size().y as usize) * w];
    let (x0, x1) = (region.lo.x, region.hi.x);
    let (off, n) = ((x0 - obox.lo.x) as usize, (x1 - x0) as usize);
    split_rows(rows, w, region.lo.y, n, &|y, row| f(&mut row[off..off + n], Window { y, x0, x1 }));
}

/// Runs `body(out, plain, clamped)` over a row of outputs some of whose
/// inputs are read through clamps, handing it equal-length plain slices
/// for all of them, so the `x` loop has no clamp in it: the stretch of
/// the row no clamp touches is one call on windows of the rows
/// themselves, the few elements on either side of it are calls on copies
/// made through the clamp, `EDGE` elements at a time.
#[inline]
fn unclamped<O, const M: usize, const N: usize>(
    out: &mut [O],
    plain: [&[f64]; M],
    clamped: [RowC; N],
    body: impl Fn(&mut [O], [&[f64]; M], [&[f64]; N]),
) {
    const EDGE: usize = 4;
    let n = out.len();
    // No tap of the elements `[a, b)` is clamped.
    let a = clamped.iter().map(|r| -r.start).max().unwrap_or(0).clamp(0, n as i64) as usize;
    let b = clamped.iter().map(|r| r.row.len() as i64 - r.start).min().unwrap_or(n as i64);
    let b = b.clamp(a as i64, n as i64) as usize;
    let mut copies = [[0.0; EDGE]; N];
    let mut at = 0;
    while at < n {
        let len;
        let mut rows: [&[f64]; N] = [&[]; N];
        if (a..b).contains(&at) {
            len = b - at;
            for (row, r) in rows.iter_mut().zip(&clamped) {
                *row = &r.row[(r.start + at as i64) as usize..][..len];
            }
        } else {
            len = EDGE.min(if at < a { a } else { n } - at);
            for (copy, r) in copies.iter_mut().zip(&clamped) {
                for (j, c) in copy.iter_mut().enumerate() {
                    *c = r.clamped(at + j);
                }
            }
            for (row, copy) in rows.iter_mut().zip(&copies) {
                *row = &copy[..len];
            }
        }
        let mut plain = plain;
        for p in &mut plain {
            *p = &p[at..at + len];
        }
        body(&mut out[at..at + len], plain, rows);
        at += len;
    }
}

// --------------------------------------------------------------------
// Equation of state
// --------------------------------------------------------------------

/// Ideal-gas pressure: `p = (γ-1) ρ e`.
pub fn ideal_gas_pressure(p: &mut [f64], cbox: GBox, rho: View, e: View, region: GBox, gamma: f64) {
    par_rows(p, cbox, region, |out, w| {
        let (rho, e) = (w.row(rho), w.row(e));
        for (i, o) in out.iter_mut().enumerate() {
            *o = (gamma - 1.0) * rho[i] * e[i];
        }
    });
}

/// Ideal-gas sound speed: `c = sqrt(γ p / ρ)` (zero in vacuum).
pub fn ideal_gas_soundspeed(
    ss: &mut [f64],
    cbox: GBox,
    p: View,
    rho: View,
    region: GBox,
    gamma: f64,
) {
    par_rows(ss, cbox, region, |out, w| {
        let (p, rho) = (w.row(p), w.row(rho));
        for (i, o) in out.iter_mut().enumerate() {
            let d = rho[i];
            let c = (gamma * p[i].max(0.0) / d).sqrt();
            *o = if d > 0.0 { c } else { 0.0 };
        }
    });
}

// --------------------------------------------------------------------
// Artificial viscosity (von Neumann–Richtmyer quadratic + linear)
// --------------------------------------------------------------------

/// Velocity jumps across cell `i` of a row: `(Δu, Δv)` from its four
/// nodes.
#[inline(always)]
fn cell_velocity_jumps(u: &Quad, v: &Quad, i: usize) -> (f64, f64) {
    let du = 0.5 * ((u.br[i] + u.tr[i]) - (u.bl[i] + u.tl[i]));
    let dv = 0.5 * ((v.tl[i] + v.tr[i]) - (v.bl[i] + v.br[i]));
    (du, dv)
}

/// Artificial viscous pressure `q`: quadratic + linear in the
/// compressive velocity jump, zero in expansion.
#[allow(clippy::too_many_arguments)]
pub fn viscosity(
    q: &mut [f64],
    cbox: GBox,
    rho: View,
    ss: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
) {
    const Q2: f64 = 2.0; // quadratic coefficient
    const Q1: f64 = 0.5; // linear coefficient
    par_rows(q, cbox, region, |out, w| {
        let (rho, ss, u, v) = (w.row(rho), w.row(ss), w.quad(u), w.quad(v));
        for (i, o) in out.iter_mut().enumerate() {
            let (du, dv) = cell_velocity_jumps(&u, &v, i);
            let div = du / dx.0 + dv / dx.1;
            // Compressive jump magnitude.
            let jump = (-du).max(0.0) + (-dv).max(0.0);
            let q = rho[i] * (Q2 * jump * jump + Q1 * ss[i] * jump);
            *o = if div < 0.0 { q } else { 0.0 };
        }
    });
}

// --------------------------------------------------------------------
// Timestep
// --------------------------------------------------------------------

/// Per-patch stable dt: CFL on the effective signal speed plus a
/// divergence (volume-change) constraint. Returns `+inf` for an empty
/// region. The minimum folds `x` within a row, then the rows in order.
#[allow(clippy::too_many_arguments)]
pub fn calc_dt(
    rho: View,
    q: View,
    ss: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
    cfl: f64,
) -> f64 {
    if region.is_empty() {
        return f64::INFINITY;
    }
    let mut per_row = vec![f64::INFINITY; region.size().y as usize];
    split_rows(&mut per_row, 1, region.lo.y, region.size().x as usize, &|y, out| {
        let w = Window { y, x0: region.lo.x, x1: region.hi.x };
        let (rho, q, ss, u, v) = (w.row(rho), w.row(q), w.row(ss), w.quad(u), w.quad(v));
        let mut dt = f64::INFINITY;
        for (i, &rho) in rho.iter().enumerate() {
            let d = rho.max(1e-300);
            // Effective signal speed: sound speed stiffened by the
            // viscous pressure.
            let cs = (ss[i] * ss[i] + 2.0 * q[i] / d).sqrt();
            let dtx = dx.0 / (cs + u.abs_max(i) + 1e-12);
            let dty = dx.1 / (cs + v.abs_max(i) + 1e-12);
            let (du, dv) = cell_velocity_jumps(&u, &v, i);
            let div = (du / dx.0 + dv / dx.1).abs();
            let dtdiv = 0.25 / div.max(1e-12);
            dt = dt.min(cfl * dtx.min(dty)).min(dtdiv);
        }
        out[0] = dt;
    });
    per_row.into_iter().fold(f64::INFINITY, f64::min)
}

// --------------------------------------------------------------------
// PdV
// --------------------------------------------------------------------

/// Net swept volume of cell `i` of a row over `dt_eff` from
/// time-averaged node velocities (`u0`/`u1` are the same rows in the
/// predictor).
#[inline(always)]
fn total_flux(
    u0: &Quad,
    u1: &Quad,
    v0: &Quad,
    v1: &Quad,
    i: usize,
    dt_eff: f64,
    dx: (f64, f64),
) -> f64 {
    let (xarea, yarea) = (dx.1, dx.0);
    let left = 0.25 * dt_eff * xarea * (u0.bl[i] + u0.tl[i] + u1.bl[i] + u1.tl[i]);
    let right = 0.25 * dt_eff * xarea * (u0.br[i] + u0.tr[i] + u1.br[i] + u1.tr[i]);
    let bottom = 0.25 * dt_eff * yarea * (v0.bl[i] + v0.br[i] + v1.bl[i] + v1.br[i]);
    let top = 0.25 * dt_eff * yarea * (v0.tl[i] + v0.tr[i] + v1.tl[i] + v1.tr[i]);
    right - left + top - bottom
}

/// PdV energy update: `e1 = e0 - (p + q)/ρ0 · ΔV / V`.
#[allow(clippy::too_many_arguments)]
pub fn pdv_energy(
    e1: &mut [f64],
    cbox: GBox,
    e0: View,
    rho0: View,
    p: View,
    q: View,
    u0: View,
    u1: View,
    v0: View,
    v1: View,
    region: GBox,
    dt_eff: f64,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(e1, cbox, region, |out, w| {
        let (e0, rho0, p, q) = (w.row(e0), w.row(rho0), w.row(p), w.row(q));
        let (u0, u1, v0, v1) = (w.quad(u0), w.quad(u1), w.quad(v0), w.quad(v1));
        for (i, o) in out.iter_mut().enumerate() {
            let tf = total_flux(&u0, &u1, &v0, &v1, i, dt_eff, dx);
            let d = rho0[i].max(1e-300);
            let ech = (p[i] + q[i]) / d * tf / vol;
            *o = e0[i] - ech;
        }
    });
}

/// PdV density update: `ρ1 = ρ0 · V / (V + ΔV)`.
#[allow(clippy::too_many_arguments)]
pub fn pdv_density(
    rho1: &mut [f64],
    cbox: GBox,
    rho0: View,
    u0: View,
    u1: View,
    v0: View,
    v1: View,
    region: GBox,
    dt_eff: f64,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    par_rows(rho1, cbox, region, |out, w| {
        let rho0 = w.row(rho0);
        let (u0, u1, v0, v1) = (w.quad(u0), w.quad(u1), w.quad(v0), w.quad(v1));
        for (i, o) in out.iter_mut().enumerate() {
            let tf = total_flux(&u0, &u1, &v0, &v1, i, dt_eff, dx);
            *o = rho0[i] * vol / (vol + tf);
        }
    });
}

/// Plain field copy over a region (revert / reset).
pub fn copy_field(dst: &mut [f64], dbox: GBox, src: View, region: GBox) {
    par_rows(dst, dbox, region, |out, w| out.copy_from_slice(w.row(src)));
}

// --------------------------------------------------------------------
// Acceleration
// --------------------------------------------------------------------

/// Node velocity update from pressure and viscosity gradients. `axis`
/// selects the component being updated (0 = u, 1 = v).
#[allow(clippy::too_many_arguments)]
pub fn accelerate(
    vel1: &mut [f64],
    nbox: GBox,
    vel0: View,
    rho0: View,
    p: View,
    q: View,
    region: GBox,
    dt: f64,
    dx: (f64, f64),
    axis: usize,
) {
    let vol = dx.0 * dx.1;
    let area = if axis == 0 { dx.1 } else { dx.0 };
    par_rows(vel1, nbox, region, |out, w| {
        let vel0 = w.row(vel0);
        // The four cells around each node, lower-left first.
        let cells = w.shift(-1, -1);
        let (rho0, p, q) = (cells.quad(rho0), cells.quad(p).along(axis), cells.quad(q).along(axis));
        // Difference along `axis`, summed over the two cells across it.
        let grad = |f: &Quad, i: usize| area * ((f.tr[i] - f.tl[i]) + (f.br[i] - f.bl[i]));
        for (i, o) in out.iter_mut().enumerate() {
            let nodal_mass = 0.25 * (rho0.bl[i] + rho0.br[i] + rho0.tr[i] + rho0.tl[i]) * vol;
            let sbm = 0.5 * dt / nodal_mass.max(1e-300);
            *o = vel0[i] - sbm * (grad(&p, i) + grad(&q, i));
        }
    });
}

// --------------------------------------------------------------------
// Volume fluxes
// --------------------------------------------------------------------

/// Face volume fluxes from time-averaged node velocities. `axis`
/// selects x-faces (0) or y-faces (1); `region` is in the side data
/// index space.
#[allow(clippy::too_many_arguments)]
pub fn flux_calc(
    vol_flux: &mut [f64],
    sbox: GBox,
    vel0: View,
    vel1: View,
    region: GBox,
    dt: f64,
    dx: (f64, f64),
    axis: usize,
) {
    let area = if axis == 0 { dx.1 } else { dx.0 };
    par_rows(vol_flux, sbox, region, |out, w| {
        // The face's second node lies across the face normal.
        let next = w.step(1 - axis, 1);
        let (a0, b0, a1, b1) = (w.row(vel0), next.row(vel0), w.row(vel1), next.row(vel1));
        for (i, o) in out.iter_mut().enumerate() {
            *o = 0.25 * dt * area * (a0[i] + b0[i] + a1[i] + b1[i]);
        }
    });
}

// --------------------------------------------------------------------
// Cell advection (van Leer second order, directionally split)
// --------------------------------------------------------------------

/// A cell volume from the x and y volume-flux differences across each
/// cell of `region`: `vol_of(dfx, dfy)`.
fn advec_vol(
    out: &mut [f64],
    cbox: GBox,
    vfx: View,
    vfy: View,
    region: GBox,
    vol_of: impl Fn(f64, f64) -> f64 + Sync + Send,
) {
    par_rows(out, cbox, region, |out, w| {
        let (left, right) = (w.row(vfx), w.shift(1, 0).row(vfx));
        let (bottom, top) = (w.row(vfy), w.shift(0, 1).row(vfy));
        for (i, o) in out.iter_mut().enumerate() {
            *o = vol_of(right[i] - left[i], top[i] - bottom[i]);
        }
    });
}

/// Pre-advection cell volume for the current sweep.
#[allow(clippy::too_many_arguments)]
pub fn advec_pre_vol(
    pre: &mut [f64],
    cbox: GBox,
    vfx: View,
    vfy: View,
    region: GBox,
    dir: usize,
    sweep: usize,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    match (sweep, dir) {
        (1, _) => advec_vol(pre, cbox, vfx, vfy, region, |dfx, dfy| vol + dfx + dfy),
        (_, 0) => advec_vol(pre, cbox, vfx, vfy, region, |dfx, _| vol + dfx),
        _ => advec_vol(pre, cbox, vfx, vfy, region, |_, dfy| vol + dfy),
    }
}

/// Post-advection cell volume for the current sweep: the pre-advection
/// volume minus the sweep-direction flux difference.
#[allow(clippy::too_many_arguments)]
pub fn advec_post_vol(
    post: &mut [f64],
    cbox: GBox,
    vfx: View,
    vfy: View,
    region: GBox,
    dir: usize,
    sweep: usize,
    dx: (f64, f64),
) {
    let vol = dx.0 * dx.1;
    match (sweep, dir) {
        (1, 0) => advec_vol(post, cbox, vfx, vfy, region, |_, dfy| vol + dfy),
        (1, _) => advec_vol(post, cbox, vfx, vfy, region, |dfx, _| vol + dfx),
        _ => advec_vol(post, cbox, vfx, vfy, region, |_, _| vol),
    }
}

/// The van Leer face value: second-order upwind-biased reconstruction
/// from the donor, upwind and downwind values along the sweep axis,
/// limited by the fraction `sigma` of the donor the flux carries off.
#[inline(always)]
fn van_leer_face(sigma: f64, donor: f64, upwind: f64, downwind: f64) -> f64 {
    let diffuw = donor - upwind;
    let diffdw = downwind - donor;
    let limiter = if diffuw * diffdw > 0.0 {
        let auw = diffuw.abs();
        let adw = diffdw.abs();
        let wind = if diffdw >= 0.0 { 1.0 } else { -1.0 };
        (1.0 - sigma) * wind * auw.min(adw).min(((2.0 - sigma) * adw + (1.0 + sigma) * auw) / 6.0)
    } else {
        0.0
    };
    donor + limiter
}

/// Mass flux through the faces of the sweep axis:
/// `mass_flux = vol_flux · ρ_face` with the van Leer face density of
/// face `f` (between cells `f-1` and `f` along `axis`).
#[allow(clippy::too_many_arguments)]
pub fn advec_mass_flux(
    mass_flux: &mut [f64],
    sbox: GBox,
    vol_flux: View,
    density1: View,
    pre_vol: View,
    region: GBox,
    axis: usize,
) {
    par_rows(mass_flux, sbox, region, |out, w| {
        // Cells f-2 … f+1 of each face, and the two donor candidates.
        let rho = |k| w.step(axis, k).row_c(density1);
        let pre_vol = |k| w.step(axis, k).row_c(pre_vol);
        let clamped = [rho(-2), rho(-1), rho(0), rho(1), pre_vol(-1), pre_vol(0)];
        unclamped(out, [w.row(vol_flux)], clamped, |out, [vol_flux], [r0, r1, r2, r3, p1, p2]| {
            for (i, o) in out.iter_mut().enumerate() {
                let (vf, r, p) = (vol_flux[i], [r0[i], r1[i], r2[i], r3[i]], [p1[i], p2[i]]);
                let (donor, upwind, downwind, pre_vol) =
                    if vf > 0.0 { (r[1], r[0], r[2], p[0]) } else { (r[2], r[3], r[1], p[1]) };
                let sigma = vf.abs() / pre_vol.max(1e-300);
                *o = vf * van_leer_face(sigma, donor, upwind, downwind);
            }
        });
    });
}

/// Energy flux through the faces of the sweep axis:
/// `ener_flux = mass_flux · e_face` with the mass-coordinate van Leer
/// face energy. `ener_flux` is stored in a cell-shaped work array
/// indexed by the face's low cell.
#[allow(clippy::too_many_arguments)]
pub fn advec_ener_flux(
    ener_flux: &mut [f64],
    cbox: GBox,
    mass_flux: View,
    energy1: View,
    density1: View,
    pre_vol: View,
    region: GBox,
    axis: usize,
) {
    par_rows(ener_flux, cbox, region, |out, w| {
        let e = |k| w.step(axis, k).row_c(energy1);
        let rho = |k| w.step(axis, k).row_c(density1);
        let pre_vol = |k| w.step(axis, k).row_c(pre_vol);
        let clamped = [e(-2), e(-1), e(0), e(1), rho(-1), rho(0), pre_vol(-1), pre_vol(0)];
        let body = |out: &mut [f64], [mass_flux]: [&[f64]; 1], clamped: [&[f64]; 8]| {
            let [e0, e1, e2, e3, d1, d2, p1, p2] = clamped;
            for (i, o) in out.iter_mut().enumerate() {
                let (mf, e) = (mass_flux[i], [e0[i], e1[i], e2[i], e3[i]]);
                let m = [d1[i] * p1[i], d2[i] * p2[i]];
                let (donor, upwind, downwind, pre_mass) =
                    if mf > 0.0 { (e[1], e[0], e[2], m[0]) } else { (e[2], e[3], e[1], m[1]) };
                let sigma = mf.abs() / pre_mass.max(1e-300);
                *o = mf * van_leer_face(sigma, donor, upwind, downwind);
            }
        };
        unclamped(out, [w.row(mass_flux)], clamped, body);
    });
}

/// Cell energy update from the energy and mass fluxes (must run before
/// [`advec_cell_density`], which overwrites the pre-advection density).
#[allow(clippy::too_many_arguments)]
pub fn advec_cell_energy(
    energy1: &mut [f64],
    cbox: GBox,
    energy_old: View,
    density_old: View,
    pre_vol: View,
    mass_flux: View,
    ener_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(energy1, cbox, region, |out, w| {
        let hi = w.step(axis, 1);
        let plain = [
            w.row(energy_old),
            w.row(density_old),
            w.row(pre_vol),
            w.row(mass_flux),
            hi.row(mass_flux),
            w.row(ener_flux),
        ];
        unclamped(out, plain, [hi.row_c(ener_flux)], |out, plain, [ef_hi]| {
            let [energy_old, density_old, pre_vol, mf_lo, mf_hi, ef_lo] = plain;
            for (i, o) in out.iter_mut().enumerate() {
                let pre_mass = density_old[i] * pre_vol[i];
                let post_mass = pre_mass + mf_lo[i] - mf_hi[i];
                *o = (energy_old[i] * pre_mass + ef_lo[i] - ef_hi[i]) / post_mass.max(1e-300);
            }
        });
    });
}

/// Cell density update from the mass and volume fluxes.
#[allow(clippy::too_many_arguments)]
pub fn advec_cell_density(
    density1: &mut [f64],
    cbox: GBox,
    density_old: View,
    pre_vol: View,
    mass_flux: View,
    vol_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(density1, cbox, region, |out, w| {
        let hi = w.step(axis, 1);
        let (density_old, pre_vol) = (w.row(density_old), w.row(pre_vol));
        let (mf_lo, mf_hi) = (w.row(mass_flux), hi.row(mass_flux));
        let (vf_lo, vf_hi) = (w.row(vol_flux), hi.row(vol_flux));
        for (i, o) in out.iter_mut().enumerate() {
            let pre_mass = density_old[i] * pre_vol[i];
            let post_mass = pre_mass + mf_lo[i] - mf_hi[i];
            let advec_vol = pre_vol[i] + vf_lo[i] - vf_hi[i];
            *o = post_mass / advec_vol.max(1e-300);
        }
    });
}

// --------------------------------------------------------------------
// Momentum advection
// --------------------------------------------------------------------

/// Nodal mass flux: the average of the four adjacent face mass fluxes
/// along the sweep axis.
pub fn mom_node_flux(
    node_flux: &mut [f64],
    nbox: GBox,
    mass_flux: View,
    region: GBox,
    axis: usize,
) {
    // The faces one step back across the axis and at the node, here and
    // one step on along the axis.
    let (a, t) = (IntVector::unit(axis), IntVector::unit(1 - axis));
    par_rows(node_flux, nbox, region, |out, w| {
        let face = |s: IntVector| w.shift(s.x, s.y).row_c(mass_flux);
        let faces = [face(-t), face(IntVector::ZERO), face(a - t), face(a)];
        unclamped(out, [], faces, |out, [], [f0, f1, f2, f3]| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = 0.25 * (f0[i] + f1[i] + f2[i] + f3[i]);
            }
        });
    });
}

/// Post-advection nodal mass: the average of the four adjacent cell
/// masses (post-sweep density × post volume).
pub fn mom_node_mass_post(
    node_mass_post: &mut [f64],
    nbox: GBox,
    density1: View,
    post_vol: View,
    region: GBox,
) {
    par_rows(node_mass_post, nbox, region, |out, w| {
        // The four cells around each node.
        let rho = |dx, dy| w.shift(dx, dy).row_c(density1);
        let vol = |dx, dy| w.shift(dx, dy).row_c(post_vol);
        let cells = [
            rho(-1, -1),
            rho(0, -1),
            rho(-1, 0),
            rho(0, 0),
            vol(-1, -1),
            vol(0, -1),
            vol(-1, 0),
            vol(0, 0),
        ];
        unclamped(out, [], cells, |out, [], [d0, d1, d2, d3, v0, v1, v2, v3]| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = 0.25 * (d0[i] * v0[i] + d1[i] * v1[i] + d2[i] * v2[i] + d3[i] * v3[i]);
            }
        });
    });
}

/// Pre-advection nodal mass from the post mass and the nodal fluxes.
pub fn mom_node_mass_pre(
    node_mass_pre: &mut [f64],
    nbox: GBox,
    node_mass_post: View,
    node_flux: View,
    region: GBox,
    axis: usize,
) {
    par_rows(node_mass_pre, nbox, region, |out, w| {
        let plain = [w.row(node_mass_post), w.row(node_flux)];
        let lo_f = w.step(axis, -1).row_c(node_flux);
        unclamped(out, plain, [lo_f], |out, [post, hi_f], [lo_f]| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = post[i] - lo_f[i] + hi_f[i];
            }
        });
    });
}

/// Momentum flux: the advected velocity times the nodal mass flux,
/// with the van Leer limited node-face velocity.
#[allow(clippy::too_many_arguments)]
pub fn mom_flux(
    mom_flux: &mut [f64],
    nbox: GBox,
    vel1: View,
    node_flux: View,
    node_mass_pre: View,
    region: GBox,
    axis: usize,
) {
    par_rows(mom_flux, nbox, region, |out, w| {
        // Nodes f-1 … f+2 of each node-face, and the two donor candidates.
        let vel = |k| w.step(axis, k).row_c(vel1);
        let mass = |k| w.step(axis, k).row_c(node_mass_pre);
        let clamped = [vel(-1), vel(0), vel(1), vel(2), mass(0), mass(1)];
        unclamped(
            out,
            [w.row(node_flux)],
            clamped,
            |out, [node_flux], [v0, v1, v2, v3, m1, m2]| {
                for (i, o) in out.iter_mut().enumerate() {
                    let (nf, v, m) = (node_flux[i], [v0[i], v1[i], v2[i], v3[i]], [m1[i], m2[i]]);
                    let (vd, vu, vw, mass) =
                        if nf < 0.0 { (v[2], v[3], v[1], m[1]) } else { (v[1], v[0], v[2], m[0]) };
                    let sigma = nf.abs() / mass.max(1e-300);
                    let vdiffuw = vd - vu;
                    let vdiffdw = vw - vd;
                    let limiter = if vdiffuw * vdiffdw > 0.0 {
                        let auw = vdiffuw.abs();
                        let adw = vdiffdw.abs();
                        let wind = if vdiffdw >= 0.0 { 1.0 } else { -1.0 };
                        wind * auw.min(adw).min(((2.0 - sigma) * adw + (1.0 + sigma) * auw) / 6.0)
                    } else {
                        0.0
                    };
                    let advec_vel = vd + (1.0 - sigma) * limiter;
                    *o = advec_vel * nf;
                }
            },
        );
    });
}

/// Node velocity update from the momentum fluxes and nodal masses.
#[allow(clippy::too_many_arguments)]
pub fn mom_vel_update(
    vel1: &mut [f64],
    nbox: GBox,
    vel_old: View,
    mom_flux: View,
    node_mass_pre: View,
    node_mass_post: View,
    region: GBox,
    axis: usize,
) {
    par_rows(vel1, nbox, region, |out, w| {
        let plain = [w.row(vel_old), w.row(node_mass_pre), w.row(node_mass_post), w.row(mom_flux)];
        let lo_f = w.step(axis, -1).row_c(mom_flux);
        unclamped(out, plain, [lo_f], |out, [vel_old, pre, post, hi_f], [lo_f]| {
            for (i, o) in out.iter_mut().enumerate() {
                *o = (vel_old[i] * pre[i] + lo_f[i] - hi_f[i]) / post[i].max(1e-300);
            }
        });
    });
}

// --------------------------------------------------------------------
// Flagging and diagnostics
// --------------------------------------------------------------------

/// Gradient refinement heuristic: tag where the relative jump of
/// density or energy across the cell exceeds the thresholds. Writes
/// row-major `i32` tags (0/1) over `region` into `tags`.
///
/// # Panics
/// Panics if `tags.len()` does not match the region.
pub fn flag_cells(
    tags: &mut [i32],
    rho: View,
    e: View,
    region: GBox,
    density_threshold: f64,
    energy_threshold: f64,
) {
    let (x0, x1) = (region.lo.x, region.hi.x);
    assert_eq!(tags.len(), region.num_cells() as usize, "flag_cells: tag buffer shape");
    if region.is_empty() {
        return;
    }
    let n = (x1 - x0) as usize;
    split_rows(tags, n, region.lo.y, n, &|y, out| {
        let w = Window { y, x0, x1 };
        // The x then y neighbours of each cell, in `rho` then in `e`.
        let rho_at = |dx, dy| w.shift(dx, dy).row_c(rho);
        let e_at = |dx, dy| w.shift(dx, dy).row_c(e);
        let around = [
            rho_at(1, 0),
            rho_at(-1, 0),
            rho_at(0, 1),
            rho_at(0, -1),
            e_at(1, 0),
            e_at(-1, 0),
            e_at(0, 1),
            e_at(0, -1),
        ];
        unclamped(out, [w.row(rho), w.row(e)], around, |out, [rho, e], around| {
            let [r0, r1, r2, r3, e0, e1, e2, e3] = around;
            let rel = |c: f64, n: [f64; 4], thresh: f64| {
                let c = c.abs().max(1e-300);
                let jx = (n[0] - n[1]).abs();
                let jy = (n[2] - n[3]).abs();
                jx.max(jy) / c > thresh
            };
            for (i, t) in out.iter_mut().enumerate() {
                *t = i32::from(
                    rel(rho[i], [r0[i], r1[i], r2[i], r3[i]], density_threshold)
                        | rel(e[i], [e0[i], e1[i], e2[i], e3[i]], energy_threshold),
                );
            }
        });
    });
}

/// Conservation diagnostics over `region` (CloverLeaf `field_summary`).
/// The sums fold `x` within a row, then the rows in order.
#[allow(clippy::too_many_arguments)]
pub fn field_summary(
    rho: View,
    e: View,
    p: View,
    u: View,
    v: View,
    region: GBox,
    dx: (f64, f64),
) -> crate::state::Summary {
    if region.is_empty() {
        return crate::state::Summary::default();
    }
    let vol = dx.0 * dx.1;
    let mut per_row = vec![crate::state::Summary::default(); region.size().y as usize];
    split_rows(&mut per_row, 1, region.lo.y, region.size().x as usize, &|y, out| {
        let w = Window { y, x0: region.lo.x, x1: region.hi.x };
        let (rho, e, p, u, v) = (w.row(rho), w.row(e), w.row(p), w.quad(u), w.quad(v));
        let s = &mut out[0];
        for (i, &d) in rho.iter().enumerate() {
            let vsqrd = 0.25
                * ((u.bl[i].powi(2) + v.bl[i].powi(2))
                    + (u.br[i].powi(2) + v.br[i].powi(2))
                    + (u.tl[i].powi(2) + v.tl[i].powi(2))
                    + (u.tr[i].powi(2) + v.tr[i].powi(2)));
            s.volume += vol;
            s.mass += d * vol;
            s.internal_energy += d * e[i] * vol;
            s.kinetic_energy += 0.5 * d * vsqrd * vol;
            s.pressure += p[i] * vol;
        }
    });
    per_row.iter().fold(crate::state::Summary::default(), |a, b| a.merged(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rbamr_geometry::IntVector;

    fn b(x0: i64, y0: i64, x1: i64, y1: i64) -> GBox {
        GBox::from_coords(x0, y0, x1, y1)
    }

    fn constant(dbox: GBox, v: f64) -> Vec<f64> {
        vec![v; dbox.num_cells() as usize]
    }

    /// The per-tap reads the row windows replaced: one flat index per
    /// value, clamped into the box for `at_c`.
    fn at(v: View, x: i64, y: i64) -> f64 {
        v.data[v.dbox.offset_of(IntVector::new(x, y))]
    }

    fn at_c(v: View, x: i64, y: i64) -> f64 {
        at(v, x.clamp(v.dbox.lo.x, v.dbox.hi.x - 1), y.clamp(v.dbox.lo.y, v.dbox.hi.y - 1))
    }

    #[test]
    fn row_windows_agree_with_per_tap_reads() {
        let dbox = b(-1, -2, 4, 3);
        let data: Vec<f64> = dbox.iter().map(|p| (p.x * 10 + p.y) as f64).collect();
        let v = View::new(&data, dbox);
        assert_eq!(at(v, 2, 1), 21.0);
        for p in dbox.iter() {
            assert_eq!(v.row(p.y, p.x, p.x + 1), [at(v, p.x, p.y)]);
            assert_eq!(
                v.row(p.y, dbox.lo.x, dbox.hi.x)[(p.x - dbox.lo.x) as usize],
                at(v, p.x, p.y)
            );
        }
        assert!(v.row(0, 4, 4).is_empty());
        // Clamped rows: every start and element up to three cells
        // outside the box on every side.
        for p in dbox.grow(IntVector::uniform(3)).iter() {
            let row = v.row_c(p.y, p.x);
            for i in 0..8 {
                let want = at_c(v, p.x + i as i64, p.y);
                assert_eq!(row.clamped(i), want, "row_c({}, {})[{i}]", p.y, p.x);
            }
            // … and the same values as the plain slices a body sees,
            // for a window wider than the edge copies.
            let mut seen = [0.0; 11];
            unclamped(&mut seen, [], [row], |out, [], [row]| out.copy_from_slice(row));
            for (i, got) in seen.iter().enumerate() {
                assert_eq!(*got, at_c(v, p.x + i as i64, p.y), "unclamped({}, {})[{i}]", p.y, p.x);
            }
        }
    }

    #[test]
    #[should_panic(expected = "View::row")]
    fn row_window_wrapping_into_the_next_row_panics() {
        let dbox = b(0, 0, 4, 4);
        let data = constant(dbox, 0.0);
        // Flat indices 2..6 are inside the array: only the containment
        // check can catch it.
        View::new(&data, dbox).row(0, 2, 6);
    }

    #[test]
    #[should_panic(expected = "View::row")]
    fn row_outside_the_box_panics() {
        let dbox = b(0, 0, 4, 4);
        let data = constant(dbox, 0.0);
        View::new(&data, dbox).row(4, 0, 4);
    }

    #[test]
    #[should_panic(expected = "par_rows: output")]
    fn output_shorter_than_its_box_panics() {
        let dbox = b(0, 0, 4, 4);
        let src = constant(dbox, 1.0);
        // Two of the four rows: a row walk that stops where the array
        // ends would write those and silently skip the rest.
        copy_field(&mut [0.0; 8], dbox, View::new(&src, dbox), dbox);
    }

    #[test]
    fn ideal_gas_on_uniform_state() {
        let cbox = b(0, 0, 4, 4);
        let rho = constant(cbox, 1.0);
        let e = constant(cbox, 2.5);
        let mut p = constant(cbox, 0.0);
        let mut ss = constant(cbox, 0.0);
        ideal_gas_pressure(&mut p, cbox, View::new(&rho, cbox), View::new(&e, cbox), cbox, 1.4);
        assert!((p[0] - 1.0).abs() < 1e-14); // (1.4-1)*1*2.5 = 1
        ideal_gas_soundspeed(&mut ss, cbox, View::new(&p, cbox), View::new(&rho, cbox), cbox, 1.4);
        assert!((ss[0] - (1.4f64).sqrt()).abs() < 1e-14);
    }

    #[test]
    fn viscosity_zero_in_uniform_flow() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho = constant(cbox, 1.0);
        let ss = constant(cbox, 1.0);
        let u = constant(nbox, 3.0); // uniform motion: no compression
        let v = constant(nbox, -1.0);
        let mut q = constant(cbox, 9.0);
        viscosity(
            &mut q,
            cbox,
            View::new(&rho, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.1, 0.1),
        );
        assert!(q.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn viscosity_positive_under_compression() {
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho = constant(cbox, 2.0);
        let ss = constant(cbox, 1.0);
        // Converging x-velocity: u = -x.
        let u: Vec<f64> = nbox.iter().map(|p| -(p.x as f64)).collect();
        let v = constant(nbox, 0.0);
        let mut q = constant(cbox, 0.0);
        viscosity(
            &mut q,
            cbox,
            View::new(&rho, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (1.0, 1.0),
        );
        // jump = 1 -> q = 2*(2*1 + 0.5*1*1) = 5.
        assert!(q.iter().all(|&x| (x - 5.0).abs() < 1e-14), "{q:?}");
    }

    #[test]
    fn calc_dt_scales_with_cell_size() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho = constant(cbox, 1.0);
        let q = constant(cbox, 0.0);
        let ss = constant(cbox, 2.0);
        let u = constant(nbox, 0.0);
        let v = constant(nbox, 0.0);
        let dt1 = calc_dt(
            View::new(&rho, cbox),
            View::new(&q, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.1, 0.1),
            0.5,
        );
        let dt2 = calc_dt(
            View::new(&rho, cbox),
            View::new(&q, cbox),
            View::new(&ss, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.05, 0.05),
            0.5,
        );
        assert!((dt1 / dt2 - 2.0).abs() < 1e-12);
        // dt = cfl * dx / cs = 0.5*0.1/2.
        assert!((dt1 - 0.025).abs() < 1e-12);
        assert_eq!(
            calc_dt(
                View::new(&rho, cbox),
                View::new(&q, cbox),
                View::new(&ss, cbox),
                View::new(&u, nbox),
                View::new(&v, nbox),
                GBox::EMPTY,
                (0.1, 0.1),
                0.5
            ),
            f64::INFINITY
        );
    }

    #[test]
    fn pdv_conserves_state_with_zero_velocity() {
        let cbox = b(0, 0, 4, 4);
        let nbox = b(0, 0, 5, 5);
        let rho0 = constant(cbox, 1.5);
        let e0 = constant(cbox, 2.0);
        let p = constant(cbox, 1.0);
        let q = constant(cbox, 0.0);
        let u = constant(nbox, 0.0);
        let v = constant(nbox, 0.0);
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        let uv = View::new(&u, nbox);
        let vv = View::new(&v, nbox);
        pdv_energy(
            &mut e1,
            cbox,
            View::new(&e0, cbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.01,
            (0.1, 0.1),
        );
        pdv_density(
            &mut rho1,
            cbox,
            View::new(&rho0, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.01,
            (0.1, 0.1),
        );
        assert!(e1.iter().all(|&x| (x - 2.0).abs() < 1e-14));
        assert!(rho1.iter().all(|&x| (x - 1.5).abs() < 1e-14));
    }

    #[test]
    fn pdv_compression_heats_and_densifies() {
        // Uniformly converging flow: u = -x on nodes.
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho0 = constant(cbox, 1.0);
        let e0 = constant(cbox, 1.0);
        let p = constant(cbox, 0.4);
        let q = constant(cbox, 0.0);
        let u: Vec<f64> = nbox.iter().map(|pnt| -(pnt.x as f64)).collect();
        let v = constant(nbox, 0.0);
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        let uv = View::new(&u, nbox);
        let vv = View::new(&v, nbox);
        pdv_energy(
            &mut e1,
            cbox,
            View::new(&e0, cbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.05,
            (1.0, 1.0),
        );
        pdv_density(
            &mut rho1,
            cbox,
            View::new(&rho0, cbox),
            uv,
            uv,
            vv,
            vv,
            cbox,
            0.05,
            (1.0, 1.0),
        );
        assert!(e1.iter().all(|&x| x > 1.0), "compression must heat: {e1:?}");
        assert!(rho1.iter().all(|&x| x > 1.0), "compression must densify: {rho1:?}");
    }

    #[test]
    fn accelerate_pushes_down_pressure_gradient() {
        let cbox = b(-1, -1, 4, 4);
        let nbox = b(0, 0, 4, 4);
        let rho0 = constant(cbox, 1.0);
        // Pressure increasing with x: force along -x.
        let p: Vec<f64> = cbox.iter().map(|pnt| pnt.x as f64).collect();
        let q = constant(cbox, 0.0);
        let u0 = constant(nbox, 0.0);
        let mut u1 = constant(nbox, 0.0);
        accelerate(
            &mut u1,
            nbox,
            View::new(&u0, nbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            nbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        assert!(u1.iter().all(|&x| x < 0.0), "{u1:?}");
    }

    #[test]
    fn flux_calc_zero_for_static_flow() {
        let nbox = b(0, 0, 5, 5);
        let sxbox = b(0, 0, 5, 4);
        let u = constant(nbox, 0.0);
        let mut vf = constant(sxbox, 1.0);
        flux_calc(
            &mut vf,
            sxbox,
            View::new(&u, nbox),
            View::new(&u, nbox),
            sxbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        assert!(vf.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn advection_of_uniform_state_is_exact() {
        // A uniform density advected by uniform fluxes must stay
        // uniform (the telescoping test for the flux form).
        let cbox = b(-2, -2, 6, 6);
        let sxbox = b(-2, -2, 7, 6);
        let sybox = b(-2, -2, 6, 7);
        let rho = constant(cbox, 2.0);
        let e = constant(cbox, 1.0);
        let vol = 1.0;
        // Uniform positive x-flux, zero y-flux.
        let vfx = constant(sxbox, 0.1 * vol);
        let vfy = constant(sybox, 0.0);
        let mut pre = constant(cbox, 0.0);
        let mut post = constant(cbox, 0.0);
        advec_pre_vol(
            &mut pre,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, sybox),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        advec_post_vol(
            &mut post,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, sybox),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        assert!(pre.iter().all(|&x| (x - 1.0).abs() < 1e-14));
        let mut mfx = constant(sxbox, 0.0);
        let interior = b(0, 0, 4, 4);
        let faces = b(0, 0, 5, 4);
        advec_mass_flux(
            &mut mfx,
            sxbox,
            View::new(&vfx, sxbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            faces,
            0,
        );
        for p in faces.iter() {
            let got = mfx[sxbox.offset_of(p)];
            assert!((got - 0.2).abs() < 1e-14, "face {p}: {got}"); // 0.1 * rho 2.0
        }
        let mut ef = constant(cbox, 0.0);
        advec_ener_flux(
            &mut ef,
            cbox,
            View::new(&mfx, sxbox),
            View::new(&e, cbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            b(0, 0, 5, 4).intersect(cbox),
            0,
        );
        let mut e1 = constant(cbox, 0.0);
        let mut rho1 = constant(cbox, 0.0);
        advec_cell_energy(
            &mut e1,
            cbox,
            View::new(&e, cbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&ef, cbox),
            interior,
            0,
        );
        advec_cell_density(
            &mut rho1,
            cbox,
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&vfx, sxbox),
            interior,
            0,
        );
        for p in interior.iter() {
            assert!((rho1[cbox.offset_of(p)] - 2.0).abs() < 1e-13, "rho at {p}");
            assert!((e1[cbox.offset_of(p)] - 1.0).abs() < 1e-13, "e at {p}");
        }
    }

    #[test]
    fn flagging_marks_jumps_only() {
        let region = b(0, 0, 8, 4);
        let dbox = b(-2, -2, 10, 6);
        let rho: Vec<f64> = dbox.iter().map(|p| if p.x < 4 { 1.0 } else { 2.0 }).collect();
        let e = constant(dbox, 1.0);
        let mut tags = vec![0i32; region.num_cells() as usize];
        flag_cells(&mut tags, View::new(&rho, dbox), View::new(&e, dbox), region, 0.1, 0.1);
        for (k, p) in region.iter().enumerate() {
            let expected = (3..=4).contains(&p.x);
            assert_eq!(tags[k] == 1, expected, "cell {p}");
        }
    }

    #[test]
    fn advection_mass_telescopes_exactly() {
        // With zero flux through the outer faces of a region, the total
        // advected mass over that region is exactly conserved for
        // arbitrary interior fluxes (the telescoping property the
        // finite-volume form guarantees).
        let cbox = b(-2, -2, 8, 8);
        let sxbox = b(-2, -2, 9, 8);
        let interior = b(0, 0, 6, 6);
        let mut rho: Vec<f64> = constant(cbox, 0.0);
        for (k, v) in rho.iter_mut().enumerate() {
            *v = 1.0 + 0.3 * ((k * 13 % 7) as f64);
        }
        // Random-ish interior x-fluxes, zero on the interior's outer
        // faces (x = 0 and x = 6) and beyond.
        let mut vfx: Vec<f64> = constant(sxbox, 0.0);
        for p in b(1, 0, 6, 6).iter() {
            vfx[sxbox.offset_of(p)] = 0.05 * (((p.x * 31 + p.y * 17) % 11) as f64 - 5.0) / 10.0;
        }
        let vfy = constant(b(-2, -2, 8, 9), 0.0);
        let mut pre = constant(cbox, 0.0);
        advec_pre_vol(
            &mut pre,
            cbox,
            View::new(&vfx, sxbox),
            View::new(&vfy, b(-2, -2, 8, 9)),
            cbox,
            0,
            1,
            (1.0, 1.0),
        );
        let mut mfx = constant(sxbox, 0.0);
        advec_mass_flux(
            &mut mfx,
            sxbox,
            View::new(&vfx, sxbox),
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            b(0, 0, 7, 6),
            0,
        );
        let mut rho1 = constant(cbox, 0.0);
        advec_cell_density(
            &mut rho1,
            cbox,
            View::new(&rho, cbox),
            View::new(&pre, cbox),
            View::new(&mfx, sxbox),
            View::new(&vfx, sxbox),
            interior,
            0,
        );
        // Total mass over the interior: sum rho*pre before, rho1*advec_vol
        // after; with zero boundary fluxes these are equal.
        let before: f64 =
            interior.iter().map(|p| rho[cbox.offset_of(p)] * pre[cbox.offset_of(p)]).sum();
        let after: f64 = interior
            .iter()
            .map(|p| {
                let advec_vol = pre[cbox.offset_of(p)] + vfx[sxbox.offset_of(p)]
                    - vfx[sxbox.offset_of(p + IntVector::new(1, 0))];
                rho1[cbox.offset_of(p)] * advec_vol
            })
            .sum();
        assert!((before - after).abs() < 1e-12, "mass drift {before} -> {after}");
    }

    #[test]
    fn accelerate_is_zero_for_uniform_pressure() {
        let cbox = b(-1, -1, 5, 5);
        let nbox = b(0, 0, 5, 5);
        let rho0 = constant(cbox, 1.0);
        let p = constant(cbox, 2.5);
        let q = constant(cbox, 0.7);
        let u0: Vec<f64> = nbox.iter().map(|pnt| (pnt.x - pnt.y) as f64).collect();
        let mut u1 = constant(nbox, 0.0);
        accelerate(
            &mut u1,
            nbox,
            View::new(&u0, nbox),
            View::new(&rho0, cbox),
            View::new(&p, cbox),
            View::new(&q, cbox),
            nbox,
            0.1,
            (1.0, 1.0),
            0,
        );
        // No gradients: velocity unchanged.
        assert_eq!(u1, u0);
    }

    #[test]
    fn field_summary_totals() {
        let cbox = b(0, 0, 2, 2);
        let nbox = b(0, 0, 3, 3);
        let rho = constant(cbox, 2.0);
        let e = constant(cbox, 3.0);
        let p = constant(cbox, 1.0);
        let u = constant(nbox, 1.0);
        let v = constant(nbox, 0.0);
        let s = field_summary(
            View::new(&rho, cbox),
            View::new(&e, cbox),
            View::new(&p, cbox),
            View::new(&u, nbox),
            View::new(&v, nbox),
            cbox,
            (0.5, 0.5),
        );
        assert!((s.volume - 1.0).abs() < 1e-14);
        assert!((s.mass - 2.0).abs() < 1e-14);
        assert!((s.internal_energy - 6.0).abs() < 1e-14);
        assert!((s.kinetic_energy - 1.0).abs() < 1e-14); // 0.5*2*1*1
        assert!((s.pressure - 1.0).abs() < 1e-14);
        assert!((s.total_energy() - 7.0).abs() < 1e-14);
    }

    // ----------------------------------------------------------------
    // Frozen bits: every kernel against constants recorded from the
    // per-tap (`View::at` / `at_c`) bodies, so a rewrite of a body that
    // moves one bit of one element fails here by kernel and region.
    // ----------------------------------------------------------------

    /// splitmix64 — the test's own generator, so the frozen constants
    /// depend on nothing outside this file.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A `dbox`-shaped field of seeded values in `[lo, hi)`.
    fn field(seed: u64, dbox: GBox, lo: f64, hi: f64) -> Vec<f64> {
        let mut state = seed;
        (0..dbox.num_cells())
            .map(|_| lo + (hi - lo) * ((splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64))
            .collect()
    }

    fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in words.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Hash of a whole output array over `obox` after `run` wrote its
    /// region into it: the sentinel cells pin "nothing outside the
    /// region is written" along with the region's bits.
    fn hashed(obox: GBox, run: impl FnOnce(&mut [f64])) -> u64 {
        let mut out = vec![-7.25; obox.num_cells() as usize];
        run(&mut out);
        fnv1a(out.iter().map(|v| v.to_bits()))
    }

    /// Recorded from the per-tap bodies at commit `dd40b5e` (identical
    /// in the dev and release profiles). One row per kernel variant;
    /// the columns are the regions of [`frozen_regions`].
    const FROZEN_BITS: &str = "\
ideal_gas_pressure 374e276cc99c2bbd e9ed443abf1d0463 9976258fbec80aac 88fde51225c5717a f953166a5968ed76 3fb33670865a833a
ideal_gas_soundspeed 8fcb9941e6f49116 29f6a7f5be924dc6 9e398a518d247aee 0a3a6dc9f899c454 1e5b31fd531e863f ae56d2c793c2194d
viscosity 7b483882343555f1 65945da5562cf787 04659e23f5c0baa5 7f31cb256172a220 b08f9a23ce8ae465 7c3e4519ad29d8ad
calc_dt de8670ded35451fc c16d405e03fa0d95 f06bd27811205a43 9997122af5c84ee4 5983d0713c6d5355 c60530de39521944
pdv_energy 0ffedd55864030bd bca6aa30f50a947b 524d826cc77eabdc bcfd452fa74908f5 6ba91aaab4008ece 459b52ad54cd649b
pdv_density eb650d5d565a4bb8 4a76621edfb2ba58 d4188c36caa6b18b 367e11b378850305 0e84be73b2b96593 e5d7b091567382fd
copy_field 29979dba7c220465 15a3cc72f3552e10 08c1eb97813ad6bd b2f02a9a4053c321 577f41444fd0df14 a12f8c909bdffec6
mom_node_mass_post 8abed42a4f01cf51 bb046c17ab7059e0 6c7451cc53e1d6f1 c53362cb01404f19 7d052ac6df0e1c11 eb9f737ec78c89ac
flag_cells 41e5973cebefc4c4 92ad82a33462ff04 d3de3841c29d9844 a875fae9a5ebdaa4 8b15ac4251670164 b8650f06a846baa4
field_summary ac68da0b408f2fb0 4b00f8c96d1d671a 1d77ed7f34b93656 4d0833ededd0e406 e2df5a95d8367846 a790b684722a7f18
accelerate/0 f5401007ed4b0eae aeccd4ea0a50af3c fa1d31de45925500 5195c751d94e5e3a 667b2edb8c55ca1e 596f39263d756ba7
flux_calc/0 5c5474813ad45090 7d160408c1ffd9e1 f1d0180beaeba86d 151527a9ffa1e751 80ac1b006d5e9471 e79e9dd38a291403
advec_pre_vol/0/1 f769014244654d46 a61498c926a2ab00 d01ce333ea86c5d6 3735960ce1f4ac4c a07838ccc381e7cf a9e76bd8c74ce874
advec_post_vol/0/1 7f412cc501267700 757ea6b4d105bfd2 2752a115c7b7a124 04ec9a1c066d61c0 0b5dfb52f6c81061 75540b450ecbc3d8
advec_pre_vol/0/2 50d98c578b207014 b5166e9f81be0c0d 9056d429ba519150 82a8d369ff76d83f eeb96beaf0e0bc20 00aadd1ceccb01e2
advec_post_vol/0/2 472de51f63f3c61f f081278c537e315f 9816177b0010e7df 9a6292e75b53dfdf fdc5804822fa25bf d95f113c77506bbf
advec_mass_flux/0 5fb9961fd76b16e3 c5e25ef813cda554 3a8927140e596274 262621ea6a183329 a5c8f062f3149619 f5b80bec93b5d604
advec_ener_flux/0 4a9f233454b10903 d63dfdc1b8e86f59 e97265bf04f28848 fc45e7deba6beec6 369e4eb4e657d24b 4ef26871a6cbdcc6
advec_cell_energy/0 a90972d1faa1d2b8 c4af89b6fba128e6 65f4fb7d8e1da12f 742c2a97227564fa 40b878517b6311c2 bb6716871907e9b0
advec_cell_density/0 5f3ba3127825767c c1e8c4a81acb2d61 a85918555e549abe a0b87a3cf4c80236 62282ec6c2764f47 38a8cc6b305378c6
mom_node_flux/0 e6d329c6325ff122 faed4d40db0e86a7 0be89036e6c24539 cb31f4e884e8851d 682668710a7dbf66 a91a853250610463
mom_node_mass_pre/0 3a2fc683c040062c a2e0e616ac9ca7b4 92cb2e71c331beb5 fe42154eb4ad9467 f0dfabe38ce2de92 e3cce26802c8c9ec
mom_flux/0 238fff2df9a8a1fa 3ab33b5370dc7783 8bf4dd013468c6e5 647fe5879773a128 53f843eb4d1e65ee f882b71f78537e03
mom_vel_update/0 e65cf0488554dae7 9c1e2ad4d4cd1d25 9bd691a2ec375f69 86a12d365e7e4b1f 6cd1933b47bebcf9 4ceb21fe6be502cf
accelerate/1 e63eab4730a7df0c b92f0439e5453dd7 ee752440ea0ec09a 581187022f7d0edf 859dbd34e43d553a f4f999f36149d47d
flux_calc/1 09aeaabe848a1ee3 9fbe2412782bcc96 af76de8d63b083c2 09a2f33fb922e0de 04d19903da9adbdb d81a257e6693adaf
advec_pre_vol/1/1 f769014244654d46 a61498c926a2ab00 d01ce333ea86c5d6 3735960ce1f4ac4c a07838ccc381e7cf a9e76bd8c74ce874
advec_post_vol/1/1 50d98c578b207014 b5166e9f81be0c0d 9056d429ba519150 82a8d369ff76d83f eeb96beaf0e0bc20 00aadd1ceccb01e2
advec_pre_vol/1/2 7f412cc501267700 757ea6b4d105bfd2 2752a115c7b7a124 04ec9a1c066d61c0 0b5dfb52f6c81061 75540b450ecbc3d8
advec_post_vol/1/2 472de51f63f3c61f f081278c537e315f 9816177b0010e7df 9a6292e75b53dfdf fdc5804822fa25bf d95f113c77506bbf
advec_mass_flux/1 5a191b4190fedece 111c83e9820125bf c4e1f2a8f719a05a cb0aaedb8483f6f8 12b2415e9e3ad98b e4876913736d76cb
advec_ener_flux/1 bb9136ab408ec685 e3e8ff8184083113 107ed0d82c5e9998 c69451e6f94d3b5e 3312eeea066a0be5 1822b553576fda16
advec_cell_energy/1 d2e6645351b3b2d8 0e39c42702916d8c 224a5111240c8c2d cba6880453ce1874 5c7206164a2bb268 94088b52dd83552a
advec_cell_density/1 ef9de25818a7d44e 69c0a9cc1baca06a 2cc3089b2a4977fc d3aa239fa7783ecd 49221c53ba527823 0ae107a15561ce35
mom_node_flux/1 6637b63f82f18dc3 f274566e9a7efde6 aff7eb0de7abd22f d63601a702ab2e68 c7276441311a97b9 fae3b9f59e0f546a
mom_node_mass_pre/1 bc055a0a38a18617 5af652a7a2b206d4 53ac8468282a748c 3843a2f4ea09edde 5634ff639942de23 8cd1ed8a4bd1ff8d
mom_flux/1 87553fd2454f5373 f3faf92030a019c6 32582b1f21c993f1 3e8e5aead09fd57b 258a71af6f4482a8 cc27b81f65d7550e
mom_vel_update/1 20facf011fd795de 5c11f3593624da6a db018404a2c3ceae b2b7e47d242adc1f 7c3276085007794d f92e7d52d40e63f7";

    /// The regions a variant runs on: its nominal region, the largest
    /// region its unclamped taps allow (flush with the data-box edge
    /// wherever a tap is clamped, so every clamp fires), and that
    /// region's first/last column and first/last row — the 1-wide
    /// frames the boundary pass hands the kernels.
    fn frozen_regions(nominal: GBox, flush: GBox) -> [GBox; 6] {
        let (lo, hi) = (flush.lo, flush.hi);
        [
            nominal,
            flush,
            GBox::from_coords(lo.x, lo.y, lo.x + 1, hi.y),
            GBox::from_coords(hi.x - 1, lo.y, hi.x, hi.y),
            GBox::from_coords(lo.x, lo.y, hi.x, lo.y + 1),
            GBox::from_coords(lo.x, hi.y - 1, hi.x, hi.y),
        ]
    }

    /// The same rows over a 150 × 61 patch with two ghosts, recorded at
    /// commit `474077d` (identical in the dev and release profiles).
    /// Unlike the 37 × 23 patch, its nominal and flush regions are large
    /// enough for the row drivers to split them, unevenly (61 and 65
    /// rows).
    const FROZEN_BITS_LARGE: &str = "\
ideal_gas_pressure 6824a52b12ac4868 86648908057338c6 9dab42b4bc0712ad f1754b34b459d9e1 fdb05a2b339faf66 0b3c1667c2d67582
ideal_gas_soundspeed 4443a761378abb46 43ade59dc8fda195 8fe708492179a87e 5eafc189194417d2 b2c8c28f8b61a020 9a593c9ce0732a5d
viscosity 614415c5b0b04ef2 fa0317131e1db00d d25eaa0bb15f527e 24a984dfa1b9c3b8 a8e1a61938d523d9 9d351b46d3c44de9
calc_dt f802ee4e0bc72501 c91d7890e48ce935 bf48364ceba8ff36 2b60ad2d512b6fe5 92b6ebcbaec4d8ac ad91e1d8165186ee
pdv_energy fb73863be52e7573 484d283d583ac102 0d75c054cf9c463f c8e17720190a1d7f 35b77edefb96f77e aca40d987953ab00
pdv_density 55131721de45498f f24b700a44884b66 386ff0e677d1a4d5 7023f0ac9bfaa7d7 29e382c62ef8734e 904ab9a0a553fdbe
copy_field f3b44c8a5f9faaea 5b34eef4b5b9d731 fe2cd48dfc961d38 399fce42c7056a35 cea3bd09ecdfe16a 0e57b529c16e0e24
mom_node_mass_post 9ea8a36649257fa8 60fdf56f20fc4184 3897984b3db6edcf 6f2ea81b84d2fca1 af6511747ff22c51 0bac9130f685cdb8
flag_cells ec39f507fd77e245 bea033463595fce4 b35e30e93b15d985 2fb4e6bcda2f83a5 666d0d261cbb26a5 2880835730f06e84
field_summary 3d1e5061fbf99e51 fe23a6e757b70c20 6f0990be7d0894ce 465d28196f87a5e2 8644d6f8565f7b29 a4fdb67343cb4e88
accelerate/0 1e5c970db39a61e9 86edb6dada7cd4c8 4ac440f9e67dbda9 891213392a563339 217a37547e2934c5 add7f8790a72495c
flux_calc/0 89552c0dd79cccbe 59b6bf4c06675326 2fc5990547301b44 128ffdd26324edf2 aaad3d76279fa36a a01a75beec152347
advec_pre_vol/0/1 11129696388ddb24 e445d70043dc59fe bceea49a508ad15a 4df7fae8ebc24e2f 98d38168aa655e21 062ebec1b6b0b3d9
advec_post_vol/0/1 f07bd104af57c881 33042d81539a6da6 f992a2dd3f6fa817 7e7220c4c76ea6a9 c42d93f67cac2b52 aae2c241965bbb6b
advec_pre_vol/0/2 7dd52e3e4980aa72 e77492ed3fd23abc 7a457954bb1d7f29 0a3fb7e4543f0b51 0c94204670f9aaae cca5192a201ea082
advec_post_vol/0/2 10dbbb5d7e6a7685 9547fab7a391dd65 1c74f43604d41eca 631d57e3e6d587f6 f25adb2e2f9d9565 95a1750ab2939565
advec_mass_flux/0 2c8c510a2be267b2 81519f7d0acc6aa4 6cedafee1882c2f3 84b93be855f7ee0c b4268f67648fdd62 7073a6961e0fe85a
advec_ener_flux/0 d64536b6359764ba 5f1b40097ba08437 2c731bcdfefb4549 8211e684eb7eb885 efedc4a100558689 db3ab6c70dec7983
advec_cell_energy/0 5ce80389abba51eb 369556e27f2711d5 9dafc43d2a1fce40 278a05e35fd3a586 c4fc22b67de372ac 3873ce781a8d17c2
advec_cell_density/0 b4317e97bae304dd b6b9a412e221d1ed 67d944798feb603f 781729a043103244 fb3664d69d044365 fcb1d9891b7c68d9
mom_node_flux/0 642e480f888dbc5f c4b5d558baf660fc 0bdf59a4d339af60 58e8d4f000931993 796dcfc1c1a5ec29 8f7e4574956dbdeb
mom_node_mass_pre/0 35f0506881e0ebb7 30a9159e82fcdec3 50ed75e7710db27a dce7586e58eefe53 138897fed18e43f0 3eb097fd5bd378ec
mom_flux/0 a87d58c2fd5c67c3 02e9e7a3f1d10e85 8f8d3866f2a1b68b 52bac98f77eca2f4 2c0f1bd346d22620 1e5fa16474bf874b
mom_vel_update/0 b8ecffccbbf31223 8ef14f16eb9e1702 644bcba7e6d8dea5 97d0be98cdad58c2 414069af9e00c762 77efa6d2294bc2fc
accelerate/1 8dcc3cd513e33b7a 6168abe5ba7f887a 28a41cae9008be4a d2fdc311ef477be4 661e29d0797d81d6 5f1a26a5ee64c311
flux_calc/1 c0492640f239fd40 20e2c06ca3a3bbc0 7f4c6fb578b9cdc0 87399b38bcf8d87c 8bd4e3d1a27702b6 458bb067fff84fde
advec_pre_vol/1/1 11129696388ddb24 e445d70043dc59fe bceea49a508ad15a 4df7fae8ebc24e2f 98d38168aa655e21 062ebec1b6b0b3d9
advec_post_vol/1/1 7dd52e3e4980aa72 e77492ed3fd23abc 7a457954bb1d7f29 0a3fb7e4543f0b51 0c94204670f9aaae cca5192a201ea082
advec_pre_vol/1/2 f07bd104af57c881 33042d81539a6da6 f992a2dd3f6fa817 7e7220c4c76ea6a9 c42d93f67cac2b52 aae2c241965bbb6b
advec_post_vol/1/2 10dbbb5d7e6a7685 9547fab7a391dd65 1c74f43604d41eca 631d57e3e6d587f6 f25adb2e2f9d9565 95a1750ab2939565
advec_mass_flux/1 833e9706cb922e15 c783d6b03c980ee1 ce0d9f6549fba341 75f8bd7575e2d954 a5472b68e1c4a341 aaba79425cb23235
advec_ener_flux/1 73fb4b5c7038a1cc 0574ea153616c534 ad6e95fd77fb9e54 14510c8a98257d77 c829f8f1b6de5c0f c2a8b84a7401ecb2
advec_cell_energy/1 bbbaa79f8bdb6cab 5b2bc8d6f2cb2f76 74c8def533207840 7650a6a060307e88 204e3681db75ee3b 591e59f3f7ac6cff
advec_cell_density/1 3836d45ed21110ca 9c3bd3a1e115c87e 312a6f7c7a839226 281cfb6642f76143 9a1008ec7f890444 774d34b969330778
mom_node_flux/1 2d34fba944eb5832 e4d89ff6b9411ef5 95a511d8bd409486 fa4e66af702c66ae b142daa80210516c aa35aea6ebc34683
mom_node_mass_pre/1 8059ab698fdcc313 2dd862239f2201e0 f7f0edb87116342e c60acfdec18a7017 3abde68ae162286a fa638ea19cc0b5d7
mom_flux/1 fae89fcf37ac6b0c 64aa11a2328aa79d 893593656b269d84 4ecf8e1fc92f1acc 2b7d22dd45b4f6f9 70b49dd264d4ae4d
mom_vel_update/1 1295c9b02f0c1019 d921e41a6cc38c12 3a73c996c3790918 2c7bf8b433ac25fc f09d55e49ea38e9d d70e797736de7a17";

    #[test]
    fn every_kernel_matches_its_frozen_bits() {
        for (cells, frozen) in
            [(b(0, 0, 37, 23), FROZEN_BITS), (b(-40, 17, 110, 78), FROZEN_BITS_LARGE)]
        {
            let computed = kernel_bits(cells);
            let frozen: Vec<&str> = frozen.lines().collect();
            let moved: Vec<&String> =
                computed.iter().filter(|row| !frozen.contains(&row.as_str())).collect();
            assert!(
                moved.is_empty() && computed.len() == frozen.len(),
                "{} of {} kernel variants on {cells:?} left their frozen bits (name, then \
                 nominal / flush / first column / last column / first row / last row):\n{}",
                moved.len(),
                computed.len(),
                moved.iter().map(|r| r.as_str()).collect::<Vec<_>>().join("\n")
            );
        }
    }

    /// One line per kernel variant: its name and the hashes of its six
    /// [`frozen_regions`] on the patch `cells` with two ghosts.
    fn kernel_bits(cells: GBox) -> Vec<String> {
        use rbamr_geometry::Centring;
        const DX: (f64, f64) = (0.05, 0.04);
        // A non-square patch with two ghosts; node and side boxes
        // derived from it as the variable registry derives them.
        let grown = cells.grow(IntVector::ONE);
        let cbox = cells.grow(IntVector::uniform(2));
        let nbox = Centring::Node.data_box(cbox);
        let sbox = [Centring::Side(0).data_box(cbox), Centring::Side(1).data_box(cbox)];
        let nodes = Centring::Node.data_box(cells);
        let nodes_grown = Centring::Node.data_box(grown);

        // Positive cell fields (densities, energies, volumes …), one
        // density with vacuum cells, signed cell fields, node and side
        // fields of both signs so every donor/limiter arm is taken.
        let pos_c: Vec<Vec<f64>> = (0..8).map(|k| field(100 + k, cbox, 0.2, 2.0)).collect();
        let mut vacuum = field(120, cbox, 0.2, 2.0);
        vacuum.iter_mut().step_by(13).for_each(|v| *v = 0.0);
        let sgn_c: Vec<Vec<f64>> = (0..2).map(|k| field(140 + k, cbox, -1.0, 1.0)).collect();
        let pos_n: Vec<Vec<f64>> = (0..2).map(|k| field(200 + k, nbox, 0.2, 2.0)).collect();
        let sgn_n: Vec<Vec<f64>> = (0..6).map(|k| field(220 + k, nbox, -1.0, 1.0)).collect();
        let sgn_s: Vec<Vec<Vec<f64>>> = (0..2u64)
            .map(|a| (0..2).map(|k| field(300 + 10 * a + k, sbox[a as usize], -0.3, 0.3)).collect())
            .collect();
        let c = |k: usize| View::new(&pos_c[k], cbox);
        let cs = |k: usize| View::new(&sgn_c[k], cbox);
        let n = |k: usize| View::new(&pos_n[k], nbox);
        let ns = |k: usize| View::new(&sgn_n[k], nbox);
        let s = |a: usize, k: usize| View::new(&sgn_s[a][k], sbox[a]);

        type Run<'a> = Box<dyn Fn(GBox) -> u64 + 'a>;
        let mut variants: Vec<(String, GBox, GBox, Run)> = vec![
            (
                "ideal_gas_pressure".into(),
                grown,
                cbox,
                Box::new(|r| hashed(cbox, |o| ideal_gas_pressure(o, cbox, c(0), c(1), r, 1.4))),
            ),
            (
                "ideal_gas_soundspeed".into(),
                grown,
                cbox,
                Box::new(|r| {
                    let rho = View::new(&vacuum, cbox);
                    hashed(cbox, |o| ideal_gas_soundspeed(o, cbox, cs(0), rho, r, 1.4))
                }),
            ),
            (
                "viscosity".into(),
                grown,
                cbox,
                Box::new(|r| hashed(cbox, |o| viscosity(o, cbox, c(0), c(1), ns(0), ns(1), r, DX))),
            ),
            (
                "calc_dt".into(),
                cells,
                cbox,
                // A minimum hides all but one element: pin the region's
                // value and every cell's own.
                Box::new(|r| {
                    let rho = View::new(&vacuum, cbox);
                    let dt = |r| calc_dt(rho, c(2), c(3), ns(0), ns(1), r, DX, 0.7);
                    let cell = |p: IntVector| dt(GBox::new(p, p + IntVector::ONE));
                    fnv1a(std::iter::once(dt(r)).chain(r.iter().map(cell)).map(f64::to_bits))
                }),
            ),
            (
                "pdv_energy".into(),
                grown,
                cbox,
                Box::new(|r| {
                    hashed(cbox, |o| {
                        let (u0, u1, v0, v1) = (ns(0), ns(1), ns(2), ns(3));
                        pdv_energy(o, cbox, c(0), c(1), c(2), c(3), u0, u1, v0, v1, r, 0.01, DX);
                    })
                }),
            ),
            (
                "pdv_density".into(),
                grown,
                cbox,
                Box::new(|r| {
                    hashed(cbox, |o| {
                        pdv_density(o, cbox, c(0), ns(0), ns(1), ns(2), ns(3), r, 0.01, DX);
                    })
                }),
            ),
            (
                "copy_field".into(),
                grown,
                cbox,
                Box::new(|r| hashed(cbox, |o| copy_field(o, cbox, cs(0), r))),
            ),
            (
                "mom_node_mass_post".into(),
                nodes_grown,
                nbox,
                Box::new(|r| hashed(nbox, |o| mom_node_mass_post(o, nbox, c(0), c(1), r))),
            ),
            (
                "flag_cells".into(),
                cells,
                cbox,
                Box::new(|r| {
                    let mut tags = vec![-1i32; r.num_cells() as usize];
                    flag_cells(&mut tags, c(0), c(1), r, 0.9, 1.1);
                    fnv1a(tags.iter().map(|&t| u64::from(t as u32)))
                }),
            ),
            (
                "field_summary".into(),
                cells,
                cbox,
                Box::new(|r| {
                    let t = field_summary(c(0), c(1), c(2), ns(0), ns(1), r, DX);
                    let sums = [t.volume, t.mass, t.internal_energy, t.kinetic_energy, t.pressure];
                    fnv1a(sums.map(f64::to_bits))
                }),
            ),
        ];
        for (a, &sb) in sbox.iter().enumerate() {
            // Unclamped cell taps at `x - 1` / `y - 1`: one node layer
            // inside the cell data box.
            let acc = b(cbox.lo.x + 1, cbox.lo.y + 1, cbox.hi.x, cbox.hi.y);
            variants.push((
                format!("accelerate/{a}"),
                nodes,
                acc,
                Box::new(move |r| {
                    hashed(nbox, |o| accelerate(o, nbox, ns(0), c(0), c(1), c(2), r, 0.01, DX, a))
                }),
            ));
            variants.push((
                format!("flux_calc/{a}"),
                Centring::Side(a).data_box(grown),
                sb,
                Box::new(move |r| hashed(sb, |o| flux_calc(o, sb, ns(0), ns(1), r, 0.01, DX, a))),
            ));
            for sweep in 1..=2usize {
                variants.push((
                    format!("advec_pre_vol/{a}/{sweep}"),
                    grown,
                    cbox,
                    Box::new(move |r| {
                        hashed(cbox, |o| advec_pre_vol(o, cbox, s(0, 0), s(1, 0), r, a, sweep, DX))
                    }),
                ));
                variants.push((
                    format!("advec_post_vol/{a}/{sweep}"),
                    grown,
                    cbox,
                    Box::new(move |r| {
                        hashed(cbox, |o| advec_post_vol(o, cbox, s(0, 0), s(1, 0), r, a, sweep, DX))
                    }),
                ));
            }
            variants.push((
                format!("advec_mass_flux/{a}"),
                Centring::Side(a).data_box(cells),
                sb,
                Box::new(move |r| {
                    hashed(sb, |o| advec_mass_flux(o, sb, s(a, 0), c(0), c(1), r, a))
                }),
            ));
            // The `mass_weighted` arm of `van_leer_face`.
            variants.push((
                format!("advec_ener_flux/{a}"),
                grown,
                cbox,
                Box::new(move |r| {
                    hashed(cbox, |o| advec_ener_flux(o, cbox, s(a, 1), c(0), c(1), c(2), r, a))
                }),
            ));
            variants.push((
                format!("advec_cell_energy/{a}"),
                cells,
                cbox,
                Box::new(move |r| {
                    hashed(cbox, |o| {
                        advec_cell_energy(o, cbox, c(0), c(1), c(2), s(a, 1), cs(0), r, a);
                    })
                }),
            ));
            variants.push((
                format!("advec_cell_density/{a}"),
                cells,
                cbox,
                Box::new(move |r| {
                    hashed(cbox, |o| {
                        advec_cell_density(o, cbox, c(0), c(1), s(a, 1), s(a, 0), r, a);
                    })
                }),
            ));
            variants.push((
                format!("mom_node_flux/{a}"),
                nodes_grown,
                nbox,
                Box::new(move |r| hashed(nbox, |o| mom_node_flux(o, nbox, s(a, 1), r, a))),
            ));
            variants.push((
                format!("mom_node_mass_pre/{a}"),
                nodes_grown,
                nbox,
                Box::new(move |r| hashed(nbox, |o| mom_node_mass_pre(o, nbox, n(0), ns(0), r, a))),
            ));
            variants.push((
                format!("mom_flux/{a}"),
                nodes_grown,
                nbox,
                Box::new(move |r| hashed(nbox, |o| mom_flux(o, nbox, ns(1), ns(0), n(0), r, a))),
            ));
            variants.push((
                format!("mom_vel_update/{a}"),
                nodes,
                nbox,
                Box::new(move |r| {
                    hashed(nbox, |o| mom_vel_update(o, nbox, ns(1), ns(2), n(0), n(1), r, a))
                }),
            ));
        }

        variants
            .iter()
            .map(|(name, nominal, flush, run)| {
                let hashes = frozen_regions(*nominal, *flush).map(|r| format!("{:016x}", run(r)));
                format!("{name} {}", hashes.join(" "))
            })
            .collect()
    }

    /// The bits of `v`, for comparing arrays that may hold NaN.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Each row driver over a region large enough to split across
        /// threads writes the bits of the same call cut by hand into strips
        /// of `strip` rows, each too small to split (one row for
        /// `field_summary`, whose fold runs row by row).
        #[test]
        fn split_calls_equal_the_calls_on_their_strips(
            (x0, y0, w, h) in (-50i64..50, -50i64..50, 64i64..200, 64i64..130),
            strip in 1i64..21,
            seed in 0u64..1_000_000,
        ) {
            use rbamr_geometry::Centring;
            const DX: (f64, f64) = (0.05, 0.04);
            let region = b(x0, y0, x0 + w, y0 + h);
            let cbox = region.grow(IntVector::uniform(2));
            let nbox = Centring::Node.data_box(cbox);
            let cf: Vec<Vec<f64>> = (0..4).map(|k| field(seed + k, cbox, 0.2, 2.0)).collect();
            let nf: Vec<Vec<f64>> = (0..2).map(|k| field(seed + 10 + k, nbox, -1.0, 1.0)).collect();
            let (c, n) = (|k: usize| View::new(&cf[k], cbox), |k: usize| View::new(&nf[k], nbox));
            let strips = |rows: i64| {
                (region.lo.y..region.hi.y).step_by(rows as usize).map(move |y| {
                    b(region.lo.x, y, region.hi.x, (y + rows).min(region.hi.y))
                })
            };

            let viscosity_on = |regions: &mut dyn Iterator<Item = GBox>| {
                let mut q = constant(cbox, -7.25);
                regions.for_each(|r| viscosity(&mut q, cbox, c(0), c(1), n(0), n(1), r, DX));
                q
            };
            let whole = viscosity_on(&mut std::iter::once(region));
            prop_assert_eq!(bits(&whole), bits(&viscosity_on(&mut strips(strip))));

            let dt = |r| calc_dt(c(0), c(1), c(2), n(0), n(1), r, DX, 0.7);
            let cut = strips(strip).map(dt).fold(f64::INFINITY, f64::min);
            prop_assert_eq!(dt(region).to_bits(), cut.to_bits());

            let tags = |r: GBox| {
                let mut t = vec![-1i32; r.num_cells() as usize];
                flag_cells(&mut t, c(0), c(3), r, 0.9, 1.1);
                t
            };
            prop_assert_eq!(tags(region), strips(strip).flat_map(tags).collect::<Vec<_>>());

            let sums = |r| field_summary(c(0), c(1), c(2), n(0), n(1), r, DX);
            let cut = strips(1).fold(crate::state::Summary::default(), |a, r| a.merged(&sums(r)));
            let words = |t: crate::state::Summary| {
                [t.volume, t.mass, t.internal_energy, t.kinetic_energy, t.pressure].map(f64::to_bits)
            };
            prop_assert_eq!(words(sums(region)), words(cut));
        }
    }
}
