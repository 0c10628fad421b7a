//! Layer arms: one layer's public entry point driven in isolation with
//! the access shape a workload gives it. Each arm returns its time
//! together with the exact count it divides by.

use std::hint::black_box;
use std::time::Instant;

use emesh::network::EMeshParams;
use emesh::{EMesh, Mesh2D, NodeId};
use memsim::{HierarchyParams, MemoryHierarchy};
use sar_core::c32;
use sar_core::signal::{fft_inplace, next_pow2};
use sim_harness::{FfbpWorkload, RdaWorkload};

use crate::metrics::Metrics;

/// A timed arm: seconds and the number of operations they cover.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    /// Wall seconds of the timed loop.
    pub secs: f64,
    /// Operations the loop performed.
    pub ops: u64,
}

impl Arm {
    /// Nanoseconds per operation.
    pub fn ns_per_op(self) -> f64 {
        self.secs * 1e9 / self.ops as f64
    }
}

/// Bytes per complex pixel in the reference CPU's image layout.
const PIXEL_BYTES: u64 = 8;

/// `MemoryHierarchy::access` replaying the address shape `ffbp_ref`
/// gives the reference CPU's caches in one middle merge iteration of
/// `w`: for every output pixel, one read in each of the two child
/// beams it merges and one sequential write into the other ping-pong
/// buffer (the layout of `sar_epiphany::layout::ExternalLayout`).
pub fn memsim_ffbp_ref(w: &FfbpWorkload) -> Arm {
    let pulses = w.geom.num_pulses as u64;
    let bins = w.geom.num_bins as u64;
    let stage = u64::from(w.geom.merge_iterations() / 2);
    let child_beams = 1u64 << stage;
    let out_beams = 2 * child_beams;
    let pairs = pulses / out_beams;
    let image_bytes = pulses * bins * PIXEL_BYTES;
    let (src, dst) = (0u64, image_bytes.next_power_of_two());
    let addr = |base: u64, beam: u64, bin: u64| base + (beam * bins + bin) * PIXEL_BYTES;

    let mut caches = MemoryHierarchy::new(HierarchyParams::default());
    let t0 = Instant::now();
    for pair in 0..pairs {
        let (a, b) = (2 * pair * child_beams, (2 * pair + 1) * child_beams);
        for j in 0..out_beams {
            let child = j / 2;
            for i in 0..bins {
                black_box(caches.access(addr(src, a + child, i), false));
                black_box(caches.access(addr(src, b + child, i), false));
                black_box(caches.access(addr(dst, pair * out_beams + j, i), true));
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    Arm {
        secs,
        ops: black_box(caches.accesses()),
    }
}

/// `EMesh::write_onchip` on an idle `cols x rows` fabric with the
/// all-pairs pattern of the repository's `perf` mesh probe: every
/// source writes to `(7i + 3) mod n`, 8 to 104 payload bytes, with a
/// monotone time cursor per source.
pub fn emesh_all_pairs(cols: u16, rows: u16, transfers: u64) -> Arm {
    let mut fabric = EMesh::new(Mesh2D::new(cols, rows), EMeshParams::default());
    let n = fabric.mesh().len() as u64;
    let mut cursors = vec![0u64; n as usize];
    let t0 = Instant::now();
    for i in 0..transfers {
        let src = (i % n) as usize;
        let dst = ((i * 7 + 3) % n) as u16;
        let bytes = 8 + (i % 4) * 32;
        let r = fabric.write_onchip(
            desim::Cycle(cursors[src]),
            NodeId(src as u16),
            NodeId(dst),
            bytes,
        );
        cursors[src] = cursors[src].max(r.arrival.raw() / 4);
        black_box(r.arrival);
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(fabric.cmesh.byte_hops());
    Arm {
        secs,
        ops: transfers,
    }
}

/// Transfers per mesh in [`emesh_e16_e64`].
const MESH_TRANSFERS: u64 = 400_000;

/// [`emesh_all_pairs`] on the 16-core (4x4) and 64-core (8x8) meshes.
pub fn emesh_e16_e64() -> (Arm, Arm) {
    (
        emesh_all_pairs(4, 4, MESH_TRANSFERS),
        emesh_all_pairs(8, 8, MESH_TRANSFERS),
    )
}

/// Report [`emesh_e16_e64`]'s per-transfer times and their base count.
pub fn report_mesh(m: &mut Metrics, (e16, e64): (Arm, Arm)) {
    m.set("emesh.ns_per_transfer.e16", e16.ns_per_op());
    m.set("emesh.ns_per_transfer.e64", e64.ns_per_op());
    m.set("emesh.arm_transfers", e16.ops as f64);
}

/// `fft_inplace` at the two lengths `sar_core::rda` transforms: the
/// range matched filter (next power of two of echo + chirp length) on
/// every pulse, and the azimuth transform (the pulse count) on as many
/// columns. `ops` counts transformed points.
pub fn fft_rda(w: &RdaWorkload) -> Arm {
    let range_len = next_pow2(w.raw.cols() + w.config.chirp.samples - 1);
    let azimuth_len = w.geom.num_pulses;
    let mut range = vec![c32::ZERO; range_len];
    let mut azimuth = vec![c32::ZERO; azimuth_len];
    let mut points = 0u64;
    let t0 = Instant::now();
    for k in 0..w.raw.rows() {
        range.fill(c32::ZERO);
        range[..w.raw.cols()].copy_from_slice(w.raw.row(k));
        fft_inplace(black_box(&mut range));
        // Column `k` of the echo matrix, one sample per pulse.
        for (pulse, sample) in azimuth.iter_mut().enumerate() {
            *sample = w.raw.row(pulse)[k % w.raw.cols()];
        }
        fft_inplace(black_box(&mut azimuth));
        points += (range_len + azimuth_len) as u64;
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box((&range, &azimuth));
    Arm { secs, ops: points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arms_count_what_they_time() {
        let w = crate::inputs::ffbp(crate::inputs::PAPER_SEED, true);
        let m = memsim_ffbp_ref(&w);
        assert_eq!(m.ops, 3 * 64 * 129);
        assert!(m.secs > 0.0);
        let e = emesh_all_pairs(4, 4, 1000);
        assert_eq!(e.ops, 1000);
        let r = crate::inputs::rda(crate::inputs::PAPER_SEED, true);
        let f = fft_rda(&r);
        assert_eq!(f.ops, 64 * (256 + 64));
    }
}
