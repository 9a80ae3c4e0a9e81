//! Persistent, index-based max-min fair allocator.
//!
//! [`max_min_fair_rates`](crate::flow::max_min_fair_rates) is the *reference*
//! implementation: it allocates fresh `HashMap`s on every call and rescans
//! every link on every progressive-filling iteration. That is fine for a
//! handful of flows but caps the testbed scale — the simulator re-solves the
//! allocation on every transfer start/completion and once more per bandwidth
//! probe.
//!
//! [`Allocator`] is the production implementation: flows and links are dense
//! `u32`/`usize` indices, all working state lives in reusable scratch buffers
//! (zero allocation once warm), per-link shares are recomputed only when a
//! freeze actually dirtied the link, and the bottleneck search is a lazy
//! binary heap instead of a full rescan. The algorithm — progressive filling
//! with the same registration order, the same `(share, link)` bottleneck
//! tie-break, the same freeze order, and the same floating-point operation
//! order — is **bit-identical** to the reference for every input
//! (property-tested in `tests/alloc_equivalence.rs`).
//!
//! Inputs are expressed over abstract *resources* rather than raw links so
//! that a direction-aware capacity (the one-way degrade fault) can map the
//! two directions of one physical link onto two resources. When no one-way
//! state exists, resource `i` *is* link `i` and the inputs match the
//! reference exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Rate granted to flows that traverse no shared resource (re-exported from
/// the reference implementation so the two cannot drift).
pub use crate::flow::LOCAL_RATE_BPS;

/// A dense resource index (a link, or one direction of a link when a one-way
/// degrade is in force).
pub type ResourceId = u32;

/// A dense, reusable set of flow demands stored CSR-style so rebuilding the
/// set each allocation epoch allocates nothing once warm.
///
/// A demand is a *row*, one of two kinds:
///
/// * a **repeated** row ([`push_repeated`](Self::push_repeated), with
///   [`push`](Self::push) as the one-copy case) — `count` identical flows
///   crossing the same resources, like the in-flight transfers of one
///   `(src, dst)` pair. Identical flows always freeze together at one rate, so the row
///   occupies a single rate slot and freezes as a single token; it is
///   bit-identical to pushing the `count` flows one after another.
/// * an **aggregate** row ([`push_aggregate`](Self::push_aggregate)) — `m`
///   flows sharing one resource vector, each with one private *access*
///   resource of its own. Aggregates let the allocator register a whole
///   network-position class of symmetric clients as a single row: shared
///   links see one entry per class instead of one per client, while each
///   member keeps its own access resource so per-member bottlenecks (a cut
///   access link) still freeze that member alone. An aggregate occupies one
///   rate slot per member.
///
/// Rates come back in *slot order* — row-major, in push order — so a set
/// built only from `push` yields exactly one rate per row.
#[derive(Debug, Default, Clone)]
pub struct DemandSet {
    weights: Vec<f64>,
    /// Identical flows per row (1 for aggregate rows: each member is one).
    counts: Vec<u32>,
    path_start: Vec<u32>,
    paths: Vec<ResourceId>,
    /// Per-row private member resources (empty slice for repeated rows).
    member_start: Vec<u32>,
    members: Vec<ResourceId>,
    /// Prefix sums of rate slots: the slots of row `i` are
    /// `slot_off[i]..slot_off[i + 1]`.
    slot_off: Vec<u32>,
}

impl DemandSet {
    /// An empty demand set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every demand, retaining capacity.
    pub fn clear(&mut self) {
        self.weights.clear();
        self.counts.clear();
        self.path_start.clear();
        self.paths.clear();
        self.member_start.clear();
        self.members.clear();
        self.slot_off.clear();
    }

    /// Appends a single-flow demand. Demands must be pushed in the caller's
    /// canonical (key-sorted) order — the allocator freezes flows in push
    /// order, which is what makes results bit-identical to the reference.
    pub fn push(&mut self, weight: f64, path: &[ResourceId]) {
        self.push_repeated(weight, path, 1);
    }

    /// Appends `count` identical flows as one repeated row with a single
    /// rate slot. Exact for any weight: the result is bit-identical to
    /// pushing the same flow `count` times at this position.
    ///
    /// # Panics
    /// Panics if `count` is zero.
    pub fn push_repeated(&mut self, weight: f64, path: &[ResourceId], count: u32) {
        assert!(count > 0, "repeated demands need at least one flow");
        self.begin_row(weight, path, count, 1);
        self.member_start.push(self.members.len() as u32);
    }

    /// Appends an aggregate demand: `member_resources.len()` identical flows,
    /// each crossing every resource in `shared` plus exactly one private
    /// resource of its own. Aggregation is **exact** (bit-identical to
    /// pushing each member as a separate flow over `shared + [access]`) when
    /// every demand in the set has weight `1.0` — integer weight sums and
    /// equal freeze rates make the float accumulation order immaterial. The
    /// network model only ever aggregates unit-weight transfer demands.
    ///
    /// # Panics
    /// Panics if `member_resources` is empty.
    pub fn push_aggregate(
        &mut self,
        weight: f64,
        shared: &[ResourceId],
        member_resources: &[ResourceId],
    ) {
        assert!(
            !member_resources.is_empty(),
            "aggregate demands need at least one member"
        );
        debug_assert!(
            weight == 1.0,
            "aggregation is only exact for unit-weight demands"
        );
        self.begin_row(weight, shared, 1, member_resources.len() as u32);
        self.members.extend_from_slice(member_resources);
        self.member_start.push(self.members.len() as u32);
    }

    fn begin_row(&mut self, weight: f64, path: &[ResourceId], count: u32, slots: u32) {
        if self.path_start.is_empty() {
            self.path_start.push(0);
            self.slot_off.push(0);
            self.member_start.push(0);
        }
        self.weights.push(weight);
        self.counts.push(count);
        self.paths.extend_from_slice(path);
        self.path_start.push(self.paths.len() as u32);
        self.slot_off
            .push(self.slot_off.last().copied().unwrap_or(0) + slots);
    }

    /// Number of demand rows.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// True when no demands have been pushed.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Total rate slots across all rows (the length of the rate vector a
    /// solve produces, before any probe): one per repeated row, one per
    /// aggregate member.
    pub fn rate_slots(&self) -> usize {
        self.slot_off.last().copied().unwrap_or(0) as usize
    }

    /// Row `i` of a solve's input; `i == len()` with a probe given is the
    /// probe, one unit-weight flow whose slot comes last.
    fn row<'a>(&'a self, probe: Option<&'a [ResourceId]>, i: usize) -> Row<'a> {
        match probe {
            Some(path) if i == self.len() => Row {
                weight: 1.0,
                count: 1,
                shared: path,
                members: &[],
                offset: self.rate_slots(),
            },
            _ => Row {
                weight: self.weights[i],
                count: self.counts[i],
                shared: &self.paths[self.path_start[i] as usize..self.path_start[i + 1] as usize],
                members: &self.members
                    [self.member_start[i] as usize..self.member_start[i + 1] as usize],
                offset: self.slot_off[i] as usize,
            },
        }
    }
}

/// One demand row as the solver sees it.
struct Row<'a> {
    weight: f64,
    /// Identical flows per slot.
    count: u32,
    /// Resources every flow of the row crosses.
    shared: &'a [ResourceId],
    /// Aggregate members' private resources, one per slot (empty otherwise).
    members: &'a [ResourceId],
    /// The row's first rate slot.
    offset: usize,
}

/// 2^53: below it every integer-valued `f64` is exact, and so is adding or
/// subtracting `1.0` to or from one.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// `k` sequential `x = (x - rate).max(0.0)` steps — the remaining-capacity
/// update of `k` identical flows frozen one after another — in O(1) for
/// the stalled-flow case. When `rate == 1.0` and `0 <= x < 2^53`, each
/// `x - 1.0` is exact (both operands are multiples of `x`'s ulp, which is
/// at most 1), so the `k` steps equal one `(x - k).max(0.0)`; any other
/// rate takes the steps one by one. Allocator rates are at least 1.0, so the
/// loop may stop at zero: `(0.0 - rate).max(0.0)` is zero again.
fn subtract_repeated(x: f64, rate: f64, k: u32) -> f64 {
    if rate == 1.0 && (0.0..EXACT_INT_LIMIT).contains(&x) {
        return (x - f64::from(k)).max(0.0);
    }
    let mut x = x;
    for _ in 0..k {
        if x == 0.0 {
            return 0.0;
        }
        x = (x - rate).max(0.0);
    }
    x
}

/// `k` sequential `sum += w` steps — the unfrozen-weight contribution of
/// `k` identical flows registered one after another — in O(1) when every
/// partial sum is an exact integer (unit weight, integral `sum`, no partial
/// sum past 2^53), which is always the case for the network model's
/// unit-weight demands.
fn add_repeated(sum: f64, w: f64, k: u32) -> f64 {
    if w == 1.0 && sum.fract() == 0.0 && sum + f64::from(k) <= EXACT_INT_LIMIT {
        return sum + f64::from(k);
    }
    let mut sum = sum;
    for _ in 0..k {
        sum += w;
    }
    sum
}

/// A candidate bottleneck in the lazy heap. Ordered so that
/// `BinaryHeap::pop` yields the *smallest* `(share, resource)` — the same
/// bottleneck the reference selects by scanning every link.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    share: f64,
    resource: ResourceId,
    stamp: u32,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Candidate {}
impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: the max-heap pops the minimum (share, resource) first.
        // Shares are never NaN (weights are clamped positive), so total_cmp
        // agrees with the reference's partial comparison.
        other
            .share
            .total_cmp(&self.share)
            .then_with(|| other.resource.cmp(&self.resource))
    }
}

/// An entry in a resource's registration list. The top bit distinguishes a
/// *row* entry (every flow of the row crosses the resource — the path of a
/// repeated row, the shared path of an aggregate) from a *slot* entry
/// (exactly one aggregate member crosses it — its private access resource).
const ROW_ENTRY: u32 = 1 << 31;

/// Persistent max-min fair-share solver over dense resource indices.
///
/// All per-solve state is retained between calls, so a warm allocator
/// performs no heap allocation: the simulator keeps one per network and the
/// probe path reuses it for every `available_bandwidth` query in an epoch.
///
/// Flows are tracked in *slot space* — a repeated row is one slot however
/// many flows it stands for, an aggregate row one slot per member — while
/// per-resource registration lists hold one entry per **row** for shared
/// resources. A shared bottleneck therefore costs one list entry and one
/// weight-sum term per row instead of one per flow, and freezing a slot of
/// `k` identical flows replays their `k` per-flow capacity updates in one
/// step (see [`DemandSet`]), so a solve costs O(rows + Σ path), not
/// O(flows × path).
#[derive(Debug, Default)]
pub struct Allocator {
    /// Remaining capacity per resource (valid for touched resources only).
    remaining: Vec<f64>,
    /// Cached share per resource (valid while the heap stamp matches).
    share: Vec<f64>,
    /// Heap-entry invalidation stamps, bumped whenever a share changes.
    stamp: Vec<u32>,
    /// Row/slot entries crossing each resource, in registration order.
    flows_on: Vec<Vec<u32>>,
    /// Resources touched by the current solve (their `flows_on` is live).
    touched: Vec<ResourceId>,
    /// Per-slot frozen flags for the current solve.
    frozen: Vec<bool>,
    /// Unfrozen flow count per row for the current solve.
    live: Vec<u32>,
    /// Owning row of each slot for the current solve.
    slot_row: Vec<u32>,
    /// Resources whose share must be recomputed after a freeze round.
    dirty: Vec<ResourceId>,
    dirty_flag: Vec<bool>,
    /// Snapshot of the slots to freeze in the current round — collected
    /// before any of them freezes, exactly like the reference (which then
    /// processes the snapshot without re-checking, so a path listing the
    /// same link twice subtracts its rate twice).
    freeze_scratch: Vec<u32>,
    heap: BinaryHeap<Candidate>,
}

impl Allocator {
    /// Creates an empty allocator; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_resources(&mut self, n: usize) {
        if self.flows_on.len() < n {
            self.remaining.resize(n, 0.0);
            self.share.resize(n, 0.0);
            self.stamp.resize(n, 0);
            self.flows_on.resize_with(n, Vec::new);
            self.dirty_flag.resize(n, false);
        }
    }

    /// Solves max-min fair rates for `demands` given per-resource
    /// `capacities` (indexed by [`ResourceId`]; out-of-range resources are
    /// treated as capacity zero, exactly like absent links in the
    /// reference). `probe`, when given, is appended as one extra unit-weight
    /// demand whose rate lands in the last slot of `rates` — the one-shot
    /// incremental insert behind `available_bandwidth`.
    ///
    /// `rates` is cleared and filled with one rate per demand **slot** (plus
    /// the probe, if any), row-major in push order — for sets built only
    /// from [`DemandSet::push`] that is one rate per demand. Results are
    /// bit-identical to [`max_min_fair_rates`](crate::flow::max_min_fair_rates)
    /// over the inputs with every row exploded into its flows.
    pub fn solve(
        &mut self,
        capacities: &[f64],
        demands: &DemandSet,
        probe: Option<&[ResourceId]>,
        rates: &mut Vec<f64>,
    ) {
        let n_rows = demands.len() + usize::from(probe.is_some());
        let n_slots = demands.rate_slots() + usize::from(probe.is_some());
        rates.clear();
        rates.resize(n_slots, 0.0);
        self.frozen.clear();
        self.frozen.resize(n_slots, false);
        self.slot_row.clear();
        self.slot_row.resize(n_slots, 0);
        self.live.clear();
        self.live.resize(n_rows, 0);
        // Retire the previous solve's per-resource flow lists.
        for &r in &self.touched {
            self.flows_on[r as usize].clear();
        }
        self.touched.clear();
        self.heap.clear();

        let max_resource = demands
            .paths
            .iter()
            .chain(demands.members.iter())
            .chain(probe.unwrap_or_default())
            .copied()
            .max();
        if let Some(max) = max_resource {
            self.ensure_resources(max as usize + 1);
        }

        // Registration, in row order: local flows freeze immediately at the
        // local rate; everything else enlists on each resource it crosses
        // (first touch pins the resource's starting capacity, floored at the
        // same tiny positive value as the reference). Shared resources get
        // one entry per *row*; private member resources one entry per
        // *slot*.
        for i in 0..n_rows {
            let Row {
                weight,
                count,
                shared,
                members,
                offset: off,
            } = demands.row(probe, i);
            let slots = members.len().max(1);
            for j in 0..slots {
                self.slot_row[off + j] = i as u32;
            }
            if shared.is_empty() && members.is_empty() {
                rates[off] = LOCAL_RATE_BPS * weight.max(1e-9);
                self.frozen[off] = true;
                continue;
            }
            self.live[i] = count * slots as u32;
            for &r in shared {
                let ri = r as usize;
                if self.flows_on[ri].is_empty() {
                    self.remaining[ri] = capacities.get(ri).copied().unwrap_or(0.0).max(1.0);
                    self.touched.push(r);
                }
                self.flows_on[ri].push(ROW_ENTRY | i as u32);
            }
            for (j, &r) in members.iter().enumerate() {
                let ri = r as usize;
                if self.flows_on[ri].is_empty() {
                    self.remaining[ri] = capacities.get(ri).copied().unwrap_or(0.0).max(1.0);
                    self.touched.push(r);
                }
                self.flows_on[ri].push((off + j) as u32);
            }
        }

        // Initial shares.
        for idx in 0..self.touched.len() {
            let r = self.touched[idx];
            self.refresh_share(r, demands, probe);
        }

        // Progressive filling: repeatedly freeze every unfrozen flow on the
        // most constrained resource at that resource's fair share.
        while let Some(candidate) = self.heap.pop() {
            let r = candidate.resource as usize;
            if candidate.stamp != self.stamp[r] {
                continue; // superseded by a later share refresh
            }
            let share = self.share[r];
            // Collect the slots to freeze — row entries expand to their
            // live slots — before any of them freezes, then process the
            // snapshot without re-checking, exactly like the reference.
            self.freeze_scratch.clear();
            for &e in &self.flows_on[r] {
                if e & ROW_ENTRY != 0 {
                    let row = (e & !ROW_ENTRY) as usize;
                    if self.live[row] == 0 {
                        continue;
                    }
                    let Row {
                        members,
                        offset: off,
                        ..
                    } = demands.row(probe, row);
                    for j in 0..members.len().max(1) {
                        if !self.frozen[off + j] {
                            self.freeze_scratch.push((off + j) as u32);
                        }
                    }
                } else if !self.frozen[e as usize] {
                    self.freeze_scratch.push(e);
                }
            }
            // A slot of `k` identical flows stands for `k` consecutive
            // entries of the reference's freeze list: they freeze at one
            // rate and each subtracts it once per path entry, back to back.
            let mut k = 0;
            while k < self.freeze_scratch.len() {
                let slot = self.freeze_scratch[k] as usize;
                k += 1;
                let i = self.slot_row[slot] as usize;
                let row = demands.row(probe, i);
                let rate = (share * row.weight.max(1e-9)).max(1.0);
                rates[slot] = rate;
                if !self.frozen[slot] {
                    self.frozen[slot] = true;
                    self.live[i] -= row.count;
                }
                for &cr in row.shared {
                    let ci = cr as usize;
                    self.remaining[ci] = subtract_repeated(self.remaining[ci], rate, row.count);
                    if !self.dirty_flag[ci] {
                        self.dirty_flag[ci] = true;
                        self.dirty.push(cr);
                    }
                }
                if !row.members.is_empty() {
                    let cr = row.members[slot - row.offset];
                    let ci = cr as usize;
                    self.remaining[ci] = (self.remaining[ci] - rate).max(0.0);
                    if !self.dirty_flag[ci] {
                        self.dirty_flag[ci] = true;
                        self.dirty.push(cr);
                    }
                }
            }
            // Refresh only the resources the freeze round actually changed;
            // untouched resources keep their cached (bit-identical) share.
            for idx in 0..self.dirty.len() {
                let d = self.dirty[idx];
                self.dirty_flag[d as usize] = false;
                self.refresh_share(d, demands, probe);
            }
            self.dirty.clear();
        }

        // Slots never frozen (all their resources void) get the reference's
        // minimal positive rate.
        for (rate, frozen) in rates.iter_mut().zip(self.frozen.iter()) {
            if !frozen {
                *rate = 1.0;
            }
        }
    }

    /// Recomputes a resource's unfrozen weight (summed in registration
    /// order, matching the reference's float accumulation — a row entry with
    /// `l` live flows contributes `w` `l` times over, which for unit weights
    /// is one exact integer add) and re-arms its heap candidate when it can
    /// still be a bottleneck.
    fn refresh_share(&mut self, r: ResourceId, demands: &DemandSet, probe: Option<&[ResourceId]>) {
        let ri = r as usize;
        let weight_of = |i: usize| match probe {
            Some(_) if i == demands.len() => 1.0,
            _ => demands.weights[i],
        };
        let mut weight = 0.0;
        for &e in &self.flows_on[ri] {
            if e & ROW_ENTRY != 0 {
                let row = (e & !ROW_ENTRY) as usize;
                let live = self.live[row];
                if live > 0 {
                    weight = add_repeated(weight, weight_of(row).max(1e-9), live);
                }
            } else {
                let slot = e as usize;
                if !self.frozen[slot] {
                    weight += weight_of(self.slot_row[slot] as usize).max(1e-9);
                }
            }
        }
        self.stamp[ri] = self.stamp[ri].wrapping_add(1);
        if weight > 0.0 {
            let share = self.remaining[ri].max(0.0) / weight;
            self.share[ri] = share;
            self.heap.push(Candidate {
                share,
                resource: r,
                stamp: self.stamp[ri],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{max_min_fair_rates, FlowDemand, FlowKey};
    use crate::topology::LinkId;
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// Runs both implementations over the same inputs and asserts
    /// bit-identical rates.
    fn assert_matches_reference(capacities: &[f64], demands: &[(f64, Vec<u32>)]) {
        let cap_map: HashMap<LinkId, f64> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (LinkId(i), c))
            .collect();
        let reference_demands: Vec<FlowDemand> = demands
            .iter()
            .enumerate()
            .map(|(i, (weight, path))| FlowDemand {
                key: FlowKey(i as u64),
                links: path.iter().map(|&r| LinkId(r as usize)).collect(),
                weight: *weight,
            })
            .collect();
        let expected = max_min_fair_rates(&cap_map, &reference_demands);

        let mut set = DemandSet::new();
        for (weight, path) in demands {
            set.push(*weight, path);
        }
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        // Solve twice to cover warm-scratch reuse.
        allocator.solve(capacities, &set, None, &mut rates);
        allocator.solve(capacities, &set, None, &mut rates);
        assert_eq!(rates.len(), demands.len());
        for (i, rate) in rates.iter().enumerate() {
            let reference = expected[&FlowKey(i as u64)];
            assert!(
                rate.to_bits() == reference.to_bits(),
                "flow {i}: indexed {rate} != reference {reference}"
            );
        }
    }

    #[test]
    fn matches_reference_on_classic_cases() {
        assert_matches_reference(&[10e6], &[(1.0, vec![0]), (1.0, vec![0])]);
        assert_matches_reference(
            &[10.0, 4.0],
            &[(1.0, vec![0]), (1.0, vec![0, 1]), (1.0, vec![1])],
        );
        assert_matches_reference(&[9.0], &[(2.0, vec![0]), (1.0, vec![0])]);
        assert_matches_reference(&[], &[(1.0, vec![])]);
        assert_matches_reference(&[10.0], &[]);
        // Unknown resource (beyond the capacity slice) floors at 1 bps.
        assert_matches_reference(&[], &[(1.0, vec![42])]);
        // Duplicate resources within one path, zero capacity, tiny weights.
        assert_matches_reference(&[5.0, 0.0], &[(1.0, vec![0, 0, 1]), (1e-12, vec![1])]);
    }

    #[test]
    fn probe_matches_appending_a_unit_demand() {
        let capacities = [10.0, 4.0, 7.0];
        let base = [(1.0, vec![0]), (1.5, vec![0, 1]), (1.0, vec![1, 2])];
        let probe = vec![0u32, 2];

        let mut with_probe: Vec<(f64, Vec<u32>)> = base.to_vec();
        with_probe.push((1.0, probe.clone()));

        let mut set = DemandSet::new();
        for (weight, path) in &base {
            set.push(*weight, path);
        }
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        allocator.solve(&capacities, &set, Some(&probe), &mut rates);
        assert_eq!(rates.len(), 4);

        let mut full_set = DemandSet::new();
        for (weight, path) in &with_probe {
            full_set.push(*weight, path);
        }
        let mut full_rates = Vec::new();
        allocator.solve(&capacities, &full_set, None, &mut full_rates);
        for (a, b) in rates.iter().zip(full_rates.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn local_probe_gets_local_rate() {
        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        allocator.solve(&[10.0], &DemandSet::new(), Some(&[]), &mut rates);
        assert_eq!(rates.len(), 1);
        assert!((rates[0] - LOCAL_RATE_BPS).abs() < 1.0);
    }

    /// Solves the same scenario twice — once with members exploded into
    /// plain unit-weight rows, once with them grouped into aggregate rows —
    /// and asserts bit-identical member rates. `groups` lists
    /// `(shared_path, member_resources)` aggregates; `plain` lists ordinary
    /// rows interleaved after the groups' members in push order.
    fn assert_aggregate_matches_exploded(
        capacities: &[f64],
        rows: &[AggRow],
        probe: Option<&[u32]>,
    ) {
        let mut exploded = DemandSet::new();
        for row in rows {
            match row {
                AggRow::Plain(path) => exploded.push(1.0, path),
                AggRow::Group { shared, members } => {
                    for &access in members {
                        let mut path = vec![access];
                        path.extend_from_slice(shared);
                        exploded.push(1.0, &path);
                    }
                }
            }
        }
        let mut aggregated = DemandSet::new();
        for row in rows {
            match row {
                AggRow::Plain(path) => aggregated.push(1.0, path),
                AggRow::Group { shared, members } => {
                    aggregated.push_aggregate(1.0, shared, members)
                }
            }
        }
        assert_eq!(exploded.rate_slots(), aggregated.rate_slots());

        let mut alloc_a = Allocator::new();
        let mut alloc_b = Allocator::new();
        let (mut rates_a, mut rates_b) = (Vec::new(), Vec::new());
        // Solve twice to cover warm-scratch reuse.
        for _ in 0..2 {
            alloc_a.solve(capacities, &exploded, probe, &mut rates_a);
            alloc_b.solve(capacities, &aggregated, probe, &mut rates_b);
        }
        assert_eq!(rates_a.len(), rates_b.len());
        for (i, (a, b)) in rates_a.iter().zip(rates_b.iter()).enumerate() {
            assert!(
                a.to_bits() == b.to_bits(),
                "member {i}: exploded {a} != aggregated {b}"
            );
        }
    }

    enum AggRow {
        Plain(Vec<u32>),
        Group { shared: Vec<u32>, members: Vec<u32> },
    }

    #[test]
    fn aggregate_rows_match_exploded_members() {
        use AggRow::*;
        // Two symmetric clients behind access links 1, 2 sharing backbone 0.
        assert_aggregate_matches_exploded(
            &[10.0, 8.0, 8.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2],
            }],
            None,
        );
        // Backbone is the bottleneck: whole-row freeze.
        assert_aggregate_matches_exploded(
            &[4.0, 100.0, 100.0, 100.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // One member's access link is the bottleneck: partial freeze of that
        // member alone, the rest of the row freezes later.
        assert_aggregate_matches_exploded(
            &[30.0, 2.0, 100.0, 100.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // Equal access capacities: exploded freezes the members through
        // distinct same-share candidates; the aggregate must match.
        assert_aggregate_matches_exploded(
            &[30.0, 5.0, 5.0, 5.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2, 3],
            }],
            None,
        );
        // Mixed plain competition on the shared backbone, plus a probe.
        assert_aggregate_matches_exploded(
            &[12.0, 6.0, 9.0, 3.0, 20.0],
            &[
                Group {
                    shared: vec![0, 4],
                    members: vec![1, 2],
                },
                Plain(vec![0]),
                Group {
                    shared: vec![4],
                    members: vec![3],
                },
            ],
            Some(&[0, 4]),
        );
        // Zero-capacity shared link stalls the whole row.
        assert_aggregate_matches_exploded(
            &[0.0, 5.0, 5.0],
            &[Group {
                shared: vec![0],
                members: vec![1, 2],
            }],
            None,
        );
    }

    #[test]
    fn aggregate_rows_match_exploded_random_meshes() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for trial in 0..40 {
            let backbones = 1 + (next() % 4) as usize;
            let n_groups = 1 + (next() % 3) as usize;
            let mut capacities: Vec<f64> = (0..backbones)
                .map(|_| (next() % 500) as f64 + 0.5)
                .collect();
            let mut rows = Vec::new();
            for _ in 0..n_groups {
                let shared: Vec<u32> = (0..=(next() % backbones as u64) as usize)
                    .map(|_| (next() % backbones as u64) as u32)
                    .collect::<std::collections::BTreeSet<u32>>()
                    .into_iter()
                    .collect();
                let mult = 1 + (next() % 6) as usize;
                let members: Vec<u32> = (0..mult)
                    .map(|_| {
                        capacities.push((next() % 200) as f64 + 0.25);
                        (capacities.len() - 1) as u32
                    })
                    .collect();
                rows.push(AggRow::Group { shared, members });
                if next() % 2 == 0 {
                    let hops = (next() % 3) as usize;
                    let path: Vec<u32> = (0..hops)
                        .map(|_| (next() % backbones as u64) as u32)
                        .collect();
                    rows.push(AggRow::Plain(path));
                }
            }
            let probe: Vec<u32> = vec![(next() % backbones as u64) as u32];
            let with_probe = trial % 2 == 0;
            assert_aggregate_matches_exploded(
                &capacities,
                &rows,
                with_probe.then_some(probe.as_slice()),
            );
        }
    }

    /// Solves `(weight, path, count)` rows as repeated rows and checks every
    /// slot against the reference solve of the member-exploded flows (each
    /// row's `count` copies pushed back to back at its position, then the
    /// probe), bit for bit.
    fn assert_repeated_matches_reference(
        capacities: &[f64],
        rows: &[(f64, Vec<u32>, u32)],
        probe: Option<&[u32]>,
    ) {
        let cap_map: HashMap<LinkId, f64> = capacities
            .iter()
            .enumerate()
            .map(|(i, &c)| (LinkId(i), c))
            .collect();
        let links = |path: &[u32]| path.iter().map(|&r| LinkId(r as usize)).collect();
        let mut exploded = Vec::new();
        let mut set = DemandSet::new();
        for (weight, path, count) in rows {
            for _ in 0..*count {
                exploded.push(FlowDemand {
                    key: FlowKey(exploded.len() as u64),
                    links: links(path),
                    weight: *weight,
                });
            }
            set.push_repeated(*weight, path, *count);
        }
        let probe_key = FlowKey(exploded.len() as u64);
        if let Some(path) = probe {
            exploded.push(FlowDemand {
                key: probe_key,
                links: links(path),
                weight: 1.0,
            });
        }
        let expected = max_min_fair_rates(&cap_map, &exploded);

        let mut allocator = Allocator::new();
        let mut rates = Vec::new();
        // Solve twice to cover warm-scratch reuse.
        for _ in 0..2 {
            allocator.solve(capacities, &set, probe, &mut rates);
        }
        assert_eq!(rates.len(), rows.len() + usize::from(probe.is_some()));
        let mut key = 0u64;
        for (slot, (_, _, count)) in rows.iter().enumerate() {
            for _ in 0..*count {
                let reference = expected[&FlowKey(key)];
                assert!(
                    rates[slot].to_bits() == reference.to_bits(),
                    "row {slot}, flow {key}: repeated {} != reference {reference}",
                    rates[slot]
                );
                key += 1;
            }
        }
        if probe.is_some() {
            let reference = expected[&probe_key];
            let live = rates[rows.len()];
            assert!(
                live.to_bits() == reference.to_bits(),
                "probe: repeated {live} != reference {reference}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Repeated rows are bit-identical to their member-exploded flows
        /// under the reference allocator: capacities at or below the 1 bps
        /// floor and past 2^53, paths listing a resource twice, non-unit
        /// weights on plain rows mixed in, and an optional probe.
        #[test]
        fn repeated_rows_match_exploded_reference(seed in 0u64..u64::MAX) {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n_res = 1 + (next() % 5) as usize;
            let capacities: Vec<f64> = (0..n_res)
                .map(|_| match next() % 6 {
                    0 => 0.0,
                    1 => (next() % 1_000) as f64 / 1_000.0,
                    2 => 1.0,
                    3 => 1.0e17,
                    _ => (next() % 20_000) as f64 + 0.25,
                })
                .collect();
            let n_rows = 1 + (next() % 6) as usize;
            let rows: Vec<(f64, Vec<u32>, u32)> = (0..n_rows)
                .map(|_| {
                    let hops = (next() % 4) as usize;
                    let mut path: Vec<u32> =
                        (0..hops).map(|_| (next() % n_res as u64) as u32).collect();
                    if !path.is_empty() && next() % 4 == 0 {
                        path.push(path[0]);
                    }
                    match next() % 4 {
                        // Non-unit plain row.
                        0 => (((next() % 400) as f64 + 1.0) / 100.0, path, 1),
                        // Non-unit repeated row.
                        1 => (((next() % 400) as f64 + 1.0) / 100.0, path, 1 + (next() % 5) as u32),
                        // Unit-weight repeated row, often a large stalled pile.
                        _ => (1.0, path, 1 + (next() % 300) as u32),
                    }
                })
                .collect();
            let probe: Vec<u32> = (0..1 + next() % 2)
                .map(|_| (next() % n_res as u64) as u32)
                .collect();
            let with_probe = next() % 2 == 0;
            assert_repeated_matches_reference(
                &capacities,
                &rows,
                with_probe.then_some(probe.as_slice()),
            );
        }

        /// The batched subtraction equals `k` sequential clamped steps:
        /// `x` in [0, 1), integral `x`, `k` past `x`, and `x` at or past the
        /// 2^53 guard, for the stalled rate 1.0 and for other rates.
        #[test]
        fn batched_subtraction_matches_sequential_steps(
            frac in 0.0f64..1.0,
            int in 0u64..6_000,
            k in 1u32..5_000,
            kind in 0u32..5,
        ) {
            let x = match kind {
                0 => frac,
                1 => int as f64,
                2 => int as f64 + frac,
                3 => EXACT_INT_LIMIT - 1.0 - int as f64,
                _ => EXACT_INT_LIMIT + 2.0 * int as f64,
            };
            for rate in [1.0, 1.0 + frac, 3.0] {
                let mut sequential = x;
                for _ in 0..k {
                    sequential = (sequential - rate).max(0.0);
                }
                let batched = subtract_repeated(x, rate, k);
                prop_assert!(
                    batched.to_bits() == sequential.to_bits(),
                    "x={x} rate={rate} k={k}: batched {batched} != sequential {sequential}"
                );
            }
            for w in [1.0, frac.max(1e-9), 2.5] {
                let mut sequential = x;
                for _ in 0..k {
                    sequential += w;
                }
                let batched = add_repeated(x, w, k);
                prop_assert!(
                    batched.to_bits() == sequential.to_bits(),
                    "sum={x} w={w} k={k}: batched {batched} != sequential {sequential}"
                );
            }
        }
    }

    #[test]
    fn batch_guards_are_needed() {
        // 2^53 + 2 minus 1.0 rounds (to even) back to 2^53, so two sequential
        // steps land on 2^53 - 1 while a single subtraction of 2 gives 2^53.
        let x = EXACT_INT_LIMIT + 2.0;
        let sequential = ((x - 1.0).max(0.0) - 1.0).max(0.0);
        assert_ne!((x - 2.0).to_bits(), sequential.to_bits());
        assert_eq!(subtract_repeated(x, 1.0, 2).to_bits(), sequential.to_bits());
        // A fractional running weight sum rounds at each binade it crosses:
        // two unit adds double-round where a single add of 2 does not.
        let sum = 0.25 + 11.0 * 2f64.powi(-54);
        let sequential = (sum + 1.0) + 1.0;
        assert_ne!((sum + 2.0).to_bits(), sequential.to_bits());
        assert_eq!(add_repeated(sum, 1.0, 2).to_bits(), sequential.to_bits());
    }

    #[test]
    fn dense_random_mesh_matches_reference() {
        // Deterministic pseudo-random configurations across several sizes.
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for links in [1usize, 3, 8, 17] {
            for flows in [0usize, 1, 5, 23] {
                let capacities: Vec<f64> = (0..links)
                    .map(|_| (next() % 10_000) as f64 + 0.25)
                    .collect();
                let demands: Vec<(f64, Vec<u32>)> = (0..flows)
                    .map(|_| {
                        let hops = (next() % 4) as usize;
                        let path: Vec<u32> =
                            (0..hops).map(|_| (next() % links as u64) as u32).collect();
                        let weight = ((next() % 400) as f64 + 1.0) / 100.0;
                        (weight, path)
                    })
                    .collect();
                assert_matches_reference(&capacities, &demands);
            }
        }
    }
}
