//! Property-based equivalence of the indexed incremental allocator and the
//! reference `max_min_fair_rates` implementation.
//!
//! The `Network` now computes every transfer rate and every bandwidth probe
//! through the persistent [`simnet::Allocator`]. These tests replay random
//! scenarios — random topologies, flow churn (starts, cancellations,
//! completions), and fault mutations (link cuts/degrades, node outages,
//! background competition) — while independently reconstructing the
//! allocator's inputs from public state and solving them with the retained
//! reference implementation. Every rate and every probe must match
//! **bit-identically** at every step; this is the invariant that keeps the
//! refactored simulation core byte-compatible with the original.

use proptest::prelude::*;
use simnet::flow::{max_min_fair_rates, FlowDemand, FlowKey};
use simnet::rng::SimRng;
use simnet::topology::{LinkId, NodeId, Topology};
use simnet::{Network, SimDuration, SimTime, TransferId};
use std::collections::{BTreeMap, HashMap};

/// A random connected topology: a chain of routers with hosts hung off
/// seeded positions, seeded capacities, and seeded latencies.
fn random_topology(seed: u64, routers: usize, hosts: usize) -> (Topology, Vec<NodeId>) {
    let mut rng = SimRng::seed_from_u64(seed).derive(77);
    let mut topo = Topology::new();
    let router_ids: Vec<NodeId> = (0..routers)
        .map(|i| topo.add_router(&format!("r{i}")).unwrap())
        .collect();
    for pair in router_ids.windows(2) {
        topo.add_link(
            pair[0],
            pair[1],
            rng.uniform_range(1.0e6, 20.0e6),
            SimDuration::from_millis(rng.uniform_range(0.5, 5.0)),
        )
        .unwrap();
    }
    // Occasional shortcut links create equal-cost-ish alternatives.
    if routers > 2 && rng.index(2) == 0 {
        topo.add_link(
            router_ids[0],
            router_ids[routers - 1],
            rng.uniform_range(1.0e6, 20.0e6),
            SimDuration::from_millis(rng.uniform_range(0.5, 5.0)),
        )
        .unwrap();
    }
    let mut host_ids = Vec::new();
    for i in 0..hosts {
        let h = topo.add_host(&format!("h{i}")).unwrap();
        let r = router_ids[rng.index(router_ids.len())];
        topo.add_link(
            h,
            r,
            rng.uniform_range(2.0e6, 50.0e6),
            SimDuration::from_millis(rng.uniform_range(0.2, 2.0)),
        )
        .unwrap();
        host_ids.push(h);
    }
    (topo, host_ids)
}

/// The reference's view of the network: effective capacities from public
/// topology state plus the down-node floor.
fn reference_capacities(net: &Network) -> HashMap<LinkId, f64> {
    net.topology()
        .links()
        .map(|(id, l)| {
            let capacity = if net.node_is_down(l.a) || net.node_is_down(l.b) {
                1.0
            } else {
                l.effective_capacity_bps()
            };
            (id, capacity)
        })
        .collect()
}

/// The reference's view of the demand set, rebuilt from the test's own
/// transfer ledger (paths recomputed through the reference Dijkstra).
fn reference_demands(net: &Network, ledger: &[(TransferId, NodeId, NodeId)]) -> Vec<FlowDemand> {
    let mut demands: Vec<FlowDemand> = ledger
        .iter()
        .filter(|(id, _, _)| net.transfer_rate(*id).is_some())
        .map(|&(id, src, dst)| FlowDemand {
            key: FlowKey(id.0),
            links: net.topology().path(src, dst).unwrap(),
            weight: 1.0,
        })
        .collect();
    demands.sort_by_key(|d| d.key);
    demands
}

/// Asserts every live transfer rate and a probe between `probe` endpoints
/// match the reference solver bit-for-bit.
fn assert_reference_agreement(
    net: &Network,
    ledger: &[(TransferId, NodeId, NodeId)],
    probe: (NodeId, NodeId),
) {
    let capacities = reference_capacities(net);
    let demands = reference_demands(net, ledger);
    let expected = max_min_fair_rates(&capacities, &demands);
    for demand in &demands {
        let live = net
            .transfer_rate(TransferId(demand.key.0))
            .expect("ledger filtered to live transfers");
        let reference = expected[&demand.key];
        assert!(
            live.to_bits() == reference.to_bits(),
            "transfer {} rate diverged: live {live} != reference {reference}",
            demand.key.0
        );
    }
    // The probe query must equal a full re-solve with the probe appended.
    let (src, dst) = probe;
    let path = net.topology().path(src, dst).unwrap();
    let live_probe = net.available_bandwidth(src, dst).unwrap();
    if path.is_empty() {
        assert_eq!(live_probe, simnet::flow::LOCAL_RATE_BPS);
    } else {
        let probe_key = FlowKey(u64::MAX);
        let mut with_probe = demands.clone();
        with_probe.push(FlowDemand {
            key: probe_key,
            links: path,
            weight: 1.0,
        });
        let expected_probe = max_min_fair_rates(&capacities, &with_probe)[&probe_key];
        assert!(
            live_probe.to_bits() == expected_probe.to_bits(),
            "probe diverged: live {live_probe} != reference {expected_probe}"
        );
    }
}

/// Replays a seeded scenario of flow churn and fault mutations, checking
/// reference agreement after every step.
fn run_equivalence_scenario(seed: u64, routers: usize, hosts: usize, steps: usize) {
    run_equivalence_scenario_with(seed, routers, hosts, steps, false);
}

/// Same scenario, optionally with network-position classes injected on half
/// the hosts so transfers fold into aggregate demand rows. The reference
/// agreement assertions are unchanged: aggregation must be invisible in
/// every rate and every probe, bit for bit, including across fault-driven
/// permanent splits and divergent-state (multi-flow) splits.
fn run_equivalence_scenario_with(
    seed: u64,
    routers: usize,
    hosts: usize,
    steps: usize,
    aggregate: bool,
) {
    let (topo, host_ids) = random_topology(seed, routers, hosts);
    let links: Vec<LinkId> = topo.links().map(|(id, _)| id).collect();
    let nominal: Vec<f64> = topo.links().map(|(_, l)| l.capacity_bps).collect();
    let mut net = Network::new(topo);
    if aggregate {
        // Class every second host by its attachment router; the rest stay
        // unclassed so host-to-host transfers have a single classed endpoint.
        let classes: Vec<(NodeId, u32)> = host_ids
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 0)
            .filter_map(|(_, &h)| {
                net.topology()
                    .attachment(h)
                    .map(|(router, _)| (h, router.0 as u32))
            })
            .collect();
        net.set_flow_classes(classes);
        assert!(net.aggregation_enabled());
    }
    let mut rng = SimRng::seed_from_u64(seed).derive(99);
    let mut ledger: Vec<(TransferId, NodeId, NodeId)> = Vec::new();
    let mut clock = 0.0;
    for _ in 0..steps {
        clock += rng.uniform_range(0.01, 0.8);
        let now = SimTime::from_secs(clock);
        match rng.index(6) {
            0 | 1 => {
                let src = host_ids[rng.index(host_ids.len())];
                let dst = host_ids[rng.index(host_ids.len())];
                let size = rng.uniform_range(5.0e3, 5.0e6);
                if src != dst {
                    let id = net.start_transfer(now, src, dst, size, 0).unwrap();
                    ledger.push((id, src, dst));
                }
            }
            2 => {
                if !ledger.is_empty() {
                    let (id, ..) = ledger[rng.index(ledger.len())];
                    let _ = net.cancel_transfer(now, id);
                }
            }
            3 => {
                let link = links[rng.index(links.len())];
                let factor = [0.0, 0.1, 0.5, 1.0][rng.index(4)];
                net.set_link_capacity(now, link, nominal[link.0] * factor)
                    .unwrap();
            }
            4 => {
                let node = NodeId(rng.index(net.topology().node_count()));
                net.set_node_down(now, node, rng.index(2) == 0).unwrap();
            }
            _ => {
                let a = host_ids[rng.index(host_ids.len())];
                let b = host_ids[rng.index(host_ids.len())];
                if a != b {
                    net.set_background_between(now, a, b, rng.uniform_range(0.0, 8.0e6))
                        .unwrap();
                }
            }
        }
        net.poll_completions(now);
        let probe_src = host_ids[rng.index(host_ids.len())];
        let probe_dst = host_ids[rng.index(host_ids.len())];
        assert_reference_agreement(&net, &ledger, (probe_src, probe_dst));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The indexed allocator matches the reference bit-identically across
    /// random topologies, flow churn, and fault mutations.
    #[test]
    fn allocator_matches_reference_under_churn_and_faults(
        seed in 0u64..u64::MAX,
        routers in 2usize..6,
        hosts in 2usize..8,
        steps in 5usize..40,
    ) {
        run_equivalence_scenario(seed, routers, hosts, steps);
    }

    /// With position classes injected — transfers folding into aggregate
    /// rows, splitting lazily under faults and divergent states — every rate
    /// and probe still matches the exploded reference bit-identically.
    #[test]
    fn aggregated_allocator_matches_reference_under_churn_and_faults(
        seed in 0u64..u64::MAX,
        routers in 2usize..6,
        hosts in 2usize..8,
        steps in 5usize..40,
    ) {
        run_equivalence_scenario_with(seed, routers, hosts, steps, true);
    }
}

/// A fixed, deeper scenario so the equivalence also runs under `--test-threads`
/// deterministic CI without relying on proptest's sampling.
#[test]
fn allocator_matches_reference_fixed_deep_scenario() {
    run_equivalence_scenario(0xC0FFEE, 4, 6, 120);
}

/// The fixed deep scenario again, with aggregation on: long enough that
/// groups form, split on faults, and re-form across many epochs.
#[test]
fn aggregated_allocator_matches_reference_fixed_deep_scenario() {
    run_equivalence_scenario_with(0xC0FFEE, 4, 6, 120, true);
    run_equivalence_scenario_with(0xA66A, 3, 8, 120, true);
}

/// A per-transfer fluid drain — the network model before same-pair cohorts,
/// kept as the oracle for drain volumes and completion order. Rates come
/// from the reference allocator over the network's public state.
#[derive(Default)]
struct ReferenceDrain {
    /// Transfer id → (src, dst, remaining bits, rate).
    active: BTreeMap<u64, (NodeId, NodeId, f64, f64)>,
    /// Completed (id, delivery instant) pairs not yet polled.
    pending: Vec<(u64, SimTime)>,
    /// Seconds drained up to.
    last: f64,
}

impl ReferenceDrain {
    fn recompute(&mut self, net: &Network) {
        let capacities = reference_capacities(net);
        let demands: Vec<FlowDemand> = self
            .active
            .iter()
            .map(|(&id, &(src, dst, ..))| FlowDemand {
                key: FlowKey(id),
                links: net.topology().path(src, dst).unwrap(),
                weight: 1.0,
            })
            .collect();
        let rates = max_min_fair_rates(&capacities, &demands);
        for (id, t) in self.active.iter_mut() {
            t.3 = rates[&FlowKey(*id)];
        }
    }

    /// Drains to `now` under the network's current capacities, re-solving
    /// after each completion.
    fn advance(&mut self, net: &Network, now: SimTime) {
        let mut current = SimTime::from_secs(self.last);
        while current < now {
            let next = self
                .active
                .iter()
                .map(|(&id, &(.., remaining, rate))| {
                    let secs = if rate > 0.0 {
                        remaining / rate
                    } else {
                        f64::INFINITY
                    };
                    (current + SimDuration::from_secs(secs.min(1.0e12)), id)
                })
                .min()
                .filter(|&(at, _)| at <= now);
            let until = next.map_or(now, |(at, _)| at);
            let dt = until.since(current).as_secs();
            for t in self.active.values_mut() {
                t.2 = (t.2 - t.3 * dt).max(0.0);
            }
            current = until;
            let Some((at, id)) = next else { break };
            let (src, dst, ..) = self.active.remove(&id).unwrap();
            let path = net.topology().path(src, dst).unwrap();
            self.pending
                .push((id, at + net.topology().path_latency(&path)));
            self.recompute(net);
        }
        self.last = current.as_secs();
    }

    /// Completions delivered by `now`, as (id, delivery instant bits).
    fn poll(&mut self, now: SimTime) -> Vec<(u64, u64)> {
        let (mut ready, waiting): (Vec<_>, Vec<_>) =
            self.pending.drain(..).partition(|&(_, at)| at <= now);
        self.pending = waiting;
        ready.sort_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        ready
            .into_iter()
            .map(|(id, at)| (id, at.as_secs().to_bits()))
            .collect()
    }
}

/// Hundreds of concurrent same-pair requests pile up behind a router that is
/// down for most of the run, then drain when it returns. Every step checks
/// the live rates and a probe against the reference allocator, and every
/// transfer's rate, remaining volume and completion (id and delivery
/// instant, bit for bit) against the per-transfer reference drain.
fn run_stall_scenario(seed: u64, aggregate: bool) {
    let ms = SimDuration::from_millis;
    let mut topo = Topology::new();
    let edge = topo.add_router("edge").unwrap();
    let core = topo.add_router("core").unwrap();
    let far = topo.add_router("far").unwrap();
    topo.add_link(edge, core, 10.0e6, ms(2.0)).unwrap();
    topo.add_link(core, far, 10.0e6, ms(2.0)).unwrap();
    let mut hosts = |prefix: &str, n: usize, router: NodeId| -> Vec<NodeId> {
        (0..n)
            .map(|i| {
                let h = topo.add_host(&format!("{prefix}{i}")).unwrap();
                topo.add_link(h, router, 10.0e6, ms(1.0)).unwrap();
                h
            })
            .collect()
    };
    let clients = hosts("c", 4, edge);
    let servers = hosts("s", 2, far);
    let mut net = Network::new(topo);
    if aggregate {
        net.set_flow_classes(clients.iter().map(|&c| (c, 0)));
    }
    let mut oracle = ReferenceDrain::default();
    let mut rng = SimRng::seed_from_u64(seed).derive(5);
    let mut ledger: Vec<(TransferId, NodeId, NodeId)> = Vec::new();
    let mut core_down = false;
    let mut clock = 0.0;
    let mut peak = 0;
    while clock < 90.0 {
        clock += rng.uniform_range(0.05, 0.4);
        let now = SimTime::from_secs(clock);
        oracle.advance(&net, now);
        let pick = rng.index(8);
        if (2.0..60.0).contains(&clock) != core_down {
            core_down = !core_down;
            net.set_node_down(now, core, core_down).unwrap();
        } else if pick <= 5 {
            // Bursts of requests from two hot clients to one server, or a
            // lone transfer on an otherwise idle pair — some of them local
            // to the edge router, so they keep completing while the core
            // is down.
            let burst = if pick < 5 { 1 + rng.index(8) } else { 1 };
            for _ in 0..burst {
                let (src, dst, size) = if pick < 5 {
                    let size = [512.0, 512.0, 4096.0][rng.index(3)];
                    (clients[rng.index(2)], servers[0], size)
                } else {
                    let dst = [servers[1], clients[0]][rng.index(2)];
                    (
                        clients[2 + rng.index(2)],
                        dst,
                        rng.uniform_range(1.0e3, 2.0e5),
                    )
                };
                let id = net.start_transfer(now, src, dst, size, 0).unwrap();
                ledger.push((id, src, dst));
                oracle
                    .active
                    .insert(id.0, (src, dst, (size * 8.0).max(1.0), 0.0));
            }
        } else if pick == 6 && !ledger.is_empty() {
            let (id, ..) = ledger[rng.index(ledger.len())];
            let cancelled = net.cancel_transfer(now, id).unwrap();
            assert_eq!(cancelled, oracle.active.remove(&id.0).is_some());
        } else {
            let bps = rng.uniform_range(0.0, 8.0e6);
            net.set_background_between(now, clients[3], servers[1], bps)
                .unwrap();
        }
        oracle.recompute(&net);
        let done: Vec<(u64, u64)> = (net.poll_completions(now).iter())
            .map(|c| (c.id.0, c.delivered.as_secs().to_bits()))
            .collect();
        assert_eq!(done, oracle.poll(now), "completions at {clock}");
        peak = peak.max(net.active_transfers());
        assert_eq!(net.active_transfers(), oracle.active.len());
        for (&id, &(.., remaining, rate)) in &oracle.active {
            let id = TransferId(id);
            let live = (net.transfer_rate(id), net.transfer_remaining_bytes(id));
            let bits = (live.0.map(f64::to_bits), live.1.map(f64::to_bits));
            let expected = (Some(rate.to_bits()), Some((remaining / 8.0).to_bits()));
            assert_eq!(bits, expected, "rate and remaining of {id:?}");
        }
        let probe_src = clients[rng.index(clients.len())];
        let probe_dst = servers[rng.index(servers.len())];
        assert_reference_agreement(&net, &ledger, (probe_src, probe_dst));
    }
    assert!(peak >= 200, "the stall never piled up: peak {peak}");
}

/// Same-pair cohorts under a long stall, with one repeated row per pair.
#[test]
fn stalled_cohorts_match_reference_drain() {
    run_stall_scenario(0x57A11, false);
    run_stall_scenario(1009, false);
}

/// The stall scenario again with position classes injected, so lone
/// transfers fold into aggregate rows beside the repeated cohort rows.
#[test]
fn stalled_cohorts_match_reference_drain_aggregated() {
    run_stall_scenario(0x57A11, true);
    run_stall_scenario(1009, true);
}
