//! Closed-form Thompson wire lengths for the four fabric topologies
//! (paper §4, the wire terms of Eq. 3–6).
//!
//! The paper maps each topology onto the Thompson grid by hand and reads off
//! the interconnect lengths in grid units:
//!
//! * **Crossbar** — each bit propagates the full row interconnect of its input
//!   port and the full column interconnect of its output port, each `4N`
//!   grids long (Eq. 3's `8N · E_T_bit` term).
//! * **Fully connected** — the MUX inputs are fed by a bundle whose total
//!   length per bit is `½N²` grids (Eq. 4).
//! * **Banyan** — stage `i` has its longest interconnect equal to `4·2^i`
//!   grids (Eq. 5).
//! * **Batcher-Banyan** — the Batcher sorter contributes
//!   `4·Σ_{j=0}^{n-1} Σ_{i=0}^{j} 2^i` grids, followed by the Banyan term
//!   (Eq. 6).

/// Length in Thompson grids of one crossbar **row** interconnect (from an
/// input port across all `N` crosspoints).
#[must_use]
pub(crate) fn crossbar_row_grids(ports: usize) -> u64 {
    4 * ports as u64
}

/// Length in Thompson grids of one crossbar **column** interconnect (from a
/// crosspoint column down to the output port).
#[must_use]
pub(crate) fn crossbar_column_grids(ports: usize) -> u64 {
    4 * ports as u64
}

/// Total wire grids a single bit traverses in an `N × N` crossbar: one row
/// plus one column interconnect, `8N` grids (the wire term of Eq. 3).
#[must_use]
pub fn crossbar_bit_wire_grids(ports: usize) -> u64 {
    crossbar_row_grids(ports) + crossbar_column_grids(ports)
}

/// Total wire grids a single bit traverses in an `N × N` fully-connected
/// (MUX-based) fabric in the worst case: `½ · N²` grids (the wire term of
/// Eq. 4).
#[must_use]
pub fn fully_connected_bit_wire_grids(ports: usize) -> u64 {
    (ports * ports) as u64 / 2
}

/// Number of stages `n = log2(N)` of a Banyan network.
///
/// # Panics
///
/// Panics if `ports` is not a power of two or is smaller than 2.
#[must_use]
pub fn banyan_stages(ports: usize) -> u32 {
    assert!(
        ports >= 2 && ports.is_power_of_two(),
        "a Banyan network needs a power-of-two port count >= 2, got {ports}"
    );
    ports.trailing_zeros()
}

/// Longest interconnect at stage `stage` of a Banyan network: `4 · 2^stage`
/// grids (paper §4.3).
#[must_use]
pub fn banyan_stage_wire_grids(stage: u32) -> u64 {
    4 * (1_u64 << stage)
}

/// Worst-case total wire grids a bit traverses through all `n` Banyan stages:
/// `4 · Σ_{i=0}^{n-1} 2^i = 4·(2^n − 1)` (the wire term of Eq. 5).
#[must_use]
pub fn banyan_bit_wire_grids(ports: usize) -> u64 {
    let stages = banyan_stages(ports);
    (0..stages).map(banyan_stage_wire_grids).sum()
}

/// Worst-case wire grids contributed by the Batcher sorting network:
/// `4 · Σ_{j=0}^{n-1} Σ_{i=0}^{j} 2^i` (the first term of Eq. 6).
#[must_use]
pub(crate) fn batcher_sorter_wire_grids(ports: usize) -> u64 {
    let stages = banyan_stages(ports);
    4 * (0..stages)
        .map(|j| (0..=j).map(|i| 1_u64 << i).sum::<u64>())
        .sum::<u64>()
}

/// Worst-case total wire grids a bit traverses in a Batcher-Banyan fabric:
/// the Batcher sorter followed by the Banyan network (wire terms of Eq. 6).
#[must_use]
pub fn batcher_banyan_bit_wire_grids(ports: usize) -> u64 {
    batcher_sorter_wire_grids(ports) + banyan_bit_wire_grids(ports)
}

/// Number of sorting stages of a Batcher network: `½·n·(n+1)` where
/// `n = log2(N)` (paper §4.4).
#[must_use]
pub fn batcher_sorting_stages(ports: usize) -> u64 {
    let n = u64::from(banyan_stages(ports));
    n * (n + 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crossbar_lengths_scale_linearly() {
        assert_eq!(crossbar_row_grids(4), 16);
        assert_eq!(crossbar_column_grids(4), 16);
        assert_eq!(crossbar_bit_wire_grids(4), 32);
        assert_eq!(crossbar_bit_wire_grids(32), 256);
    }

    #[test]
    fn fully_connected_lengths_scale_quadratically() {
        assert_eq!(fully_connected_bit_wire_grids(4), 8);
        assert_eq!(fully_connected_bit_wire_grids(8), 32);
        assert_eq!(fully_connected_bit_wire_grids(32), 512);
    }

    #[test]
    fn banyan_stage_lengths_double_per_stage() {
        assert_eq!(banyan_stage_wire_grids(0), 4);
        assert_eq!(banyan_stage_wire_grids(1), 8);
        assert_eq!(banyan_stage_wire_grids(4), 64);
    }

    #[test]
    fn banyan_totals_follow_geometric_sum() {
        assert_eq!(banyan_stages(16), 4);
        // 4 * (2^n - 1)
        assert_eq!(banyan_bit_wire_grids(4), 12);
        assert_eq!(banyan_bit_wire_grids(8), 28);
        assert_eq!(banyan_bit_wire_grids(16), 60);
        assert_eq!(banyan_bit_wire_grids(32), 124);
    }

    #[test]
    fn batcher_terms_match_the_double_sum() {
        // n = 2: sum_j sum_i 2^i = (1) + (1+2) = 4 → 16 grids.
        assert_eq!(batcher_sorter_wire_grids(4), 16);
        // n = 3: 1 + 3 + 7 = 11 → 44 grids.
        assert_eq!(batcher_sorter_wire_grids(8), 44);
        assert_eq!(
            batcher_banyan_bit_wire_grids(8),
            batcher_sorter_wire_grids(8) + banyan_bit_wire_grids(8)
        );
    }

    #[test]
    fn batcher_stage_counts() {
        assert_eq!(batcher_sorting_stages(4), 3);
        assert_eq!(batcher_sorting_stages(8), 6);
        assert_eq!(batcher_sorting_stages(16), 10);
        assert_eq!(batcher_sorting_stages(32), 15);
    }

    #[test]
    fn architecture_wire_ordering_matches_the_paper() {
        // For every evaluated size the Banyan has the shortest worst-case
        // wiring and the crossbar/fully-connected grow fastest.
        for ports in [4_usize, 8, 16, 32] {
            let banyan = banyan_bit_wire_grids(ports);
            let batcher = batcher_banyan_bit_wire_grids(ports);
            let crossbar = crossbar_bit_wire_grids(ports);
            assert!(banyan < batcher);
            assert!(banyan < crossbar);
        }
        // The fully-connected N^2/2 term overtakes the crossbar's 8N at N=16.
        assert!(fully_connected_bit_wire_grids(8) < crossbar_bit_wire_grids(8));
        assert!(fully_connected_bit_wire_grids(32) > crossbar_bit_wire_grids(32));
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn non_power_of_two_banyan_panics() {
        let _ = banyan_stages(12);
    }
}
