//! The active flows of one simulation and their max-min fair rates.
//!
//! Flows sit in a slab (slots are reused, so the slab is as large as the
//! most flows ever in flight: at most `PIPELINE_DEPTH` per rank), their
//! dense routes `(resource, multiplicity)` in one arena at a fixed stride,
//! and every per-resource quantity — capacity, standing demand, incidence
//! list, traffic — in a vector indexed by the order resources were first
//! seen. Nothing is allocated once the slab has reached its high-water mark.
//!
//! [`Flows::solve`] is textbook progressive filling over the whole flow set:
//! the resources with the smallest `residual / load` share are the round's
//! bottlenecks, every unfixed flow crossing one of them is fixed at that
//! share, and the rest go round again. Only the work is organised around the
//! bottlenecks: a share is divided once per resource and refreshed only when
//! a fixed flow drains it, and a round visits the incidence lists of its
//! bottleneck resources instead of scanning every flow. The flows found are
//! sorted by op id before they drain, so the floating-point operations run
//! in the order a scan of all flows in id order would run them and every
//! rate comes out bit for bit (`tests::reference_rates` is that scan).

use std::collections::{BTreeMap, HashMap};

use crate::resource::Resource;
use crate::route::MAX_ROUTE;
use crate::schedule::OpId;

/// Slack of the engine's comparisons: of a timer against the clock (seconds)
/// and of a flow's residue against zero (bytes, beside a relative term).
pub(crate) const EPS: f64 = 1e-15;

struct Flow {
    op: u32,
    /// Entries of this slot's stride of the route arena in use.
    hops: u32,
    /// Fixed in the current solve.
    fixed: bool,
    bytes: f64,
    remaining: f64,
    rate: f64,
}

#[derive(Default)]
pub(crate) struct Flows {
    index: HashMap<Resource, u32>,
    resources: Vec<Resource>,
    caps: Vec<f64>,
    /// Summed multiplicity of the active flows on each resource. Sums of
    /// small integers are exact, so the order of arrivals cannot show.
    demand: Vec<f64>,
    /// `caps / demand`, what every solve starts a resource's share from
    /// (`INFINITY` while nothing crosses it).
    entry_share: Vec<f64>,
    /// Slots of the active flows crossing each resource, in no order.
    incidence: Vec<Vec<u32>>,
    /// Bytes × multiplicity of the finished flows, per resource.
    traffic: Vec<f64>,

    slab: Vec<Flow>,
    free: Vec<u32>,
    active: Vec<u32>,
    /// `MAX_ROUTE` entries per slot: `(dense resource, multiplicity)`.
    routes: Vec<(u32, f64)>,
    /// A flow arrived or left since the last solve.
    changed: bool,

    // Scratch of one solve, indexed like `caps`.
    residual: Vec<f64>,
    load: Vec<f64>,
    share: Vec<f64>,
    /// `op << 32 | slot` of the flows a round fixes.
    batch: Vec<u64>,
    /// The bottleneck resources of a round: a prefix of a vector as long
    /// as `caps`.
    hits: Vec<u32>,
}

impl Flows {
    pub fn is_empty(&self) -> bool {
        self.active.is_empty()
    }

    /// Whether the flow set changed since the last call (which resets it).
    pub fn take_changed(&mut self) -> bool {
        std::mem::take(&mut self.changed)
    }

    fn intern(&mut self, resource: Resource, capacity: &impl Fn(Resource) -> f64) -> u32 {
        if let Some(&r) = self.index.get(&resource) {
            return r;
        }
        let r = self.caps.len() as u32;
        self.index.insert(resource, r);
        self.resources.push(resource);
        self.caps.push(capacity(resource));
        for per_resource in [
            &mut self.demand,
            &mut self.entry_share,
            &mut self.traffic,
            &mut self.residual,
            &mut self.load,
            &mut self.share,
        ] {
            per_resource.push(0.0);
        }
        self.incidence.push(Vec::new());
        self.hits.push(0);
        r
    }

    /// Starts the flow of copy `op` over `route`. `capacity` prices a
    /// resource the first time the run sees it. The flow has no rate until
    /// the next [`Self::solve`].
    pub fn add(
        &mut self,
        op: OpId,
        bytes: usize,
        route: &[(Resource, u32)],
        capacity: impl Fn(Resource) -> f64,
    ) {
        assert!(route.len() <= MAX_ROUTE, "route longer than MAX_ROUTE");
        let flow = Flow {
            op: u32::try_from(op).expect("op ids fit u32"),
            hops: route.len() as u32,
            fixed: false,
            bytes: bytes as f64,
            remaining: bytes as f64,
            rate: 0.0,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = flow;
                slot
            }
            None => {
                self.slab.push(flow);
                self.routes.resize(self.slab.len() * MAX_ROUTE, (0, 0.0));
                self.slab.len() as u32 - 1
            }
        };
        for (hop, &(resource, mult)) in route.iter().enumerate() {
            let r = self.intern(resource, &capacity);
            let mult = f64::from(mult);
            self.routes[slot as usize * MAX_ROUTE + hop] = (r, mult);
            self.demand[r as usize] += mult;
            self.entry_share[r as usize] = self.caps[r as usize] / self.demand[r as usize];
            self.incidence[r as usize].push(slot);
        }
        self.active.push(slot);
        self.changed = true;
    }

    /// Moves every flow `dt` seconds along at its rate (`now` is the clock
    /// after the step), retires the drained ones — their op ids are appended
    /// to `finished` — and returns the earliest time one of the others
    /// drains at its present rate (`INFINITY` when none is left).
    ///
    /// A step of no length in an event that has started no flow and
    /// completed nothing (`finished` holds the event's completions so far)
    /// was asked for by a flow whose residue is above the drain threshold
    /// yet too small for `remaining / rate` to move the clock. Nothing
    /// would ever change again, so that flow is retired too.
    pub fn advance(&mut self, dt: f64, now: f64, finished: &mut Vec<OpId>) -> f64 {
        let clock_stopped = dt == 0.0 && !self.changed && finished.is_empty();
        let mut next = f64::INFINITY;
        let mut i = 0;
        while i < self.active.len() {
            let slot = self.active[i];
            let f = &mut self.slab[slot as usize];
            if dt > 0.0 {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
            let drained_at = now + f.remaining / f.rate;
            if f.remaining <= f.bytes * 1e-12 + EPS || (clock_stopped && drained_at <= now) {
                finished.push(f.op as OpId);
                self.active.swap_remove(i);
                self.retire(slot);
                continue;
            }
            if drained_at < next {
                next = drained_at;
            }
            i += 1;
        }
        next
    }

    fn retire(&mut self, slot: u32) {
        let f = &self.slab[slot as usize];
        let base = slot as usize * MAX_ROUTE;
        for &(r, mult) in &self.routes[base..base + f.hops as usize] {
            let r = r as usize;
            let crossing = &mut self.incidence[r];
            let at = crossing
                .iter()
                .position(|&s| s == slot)
                .expect("an active flow is on the incidence list of each of its resources");
            crossing.swap_remove(at);
            self.demand[r] -= mult;
            self.entry_share[r] = share_of(self.caps[r], self.demand[r]);
            self.traffic[r] += f.bytes * mult;
        }
        self.free.push(slot);
        self.changed = true;
    }

    /// Max-min fair rates for the whole flow set (which must not be empty)
    /// by progressive filling. Returns the earliest time a flow drains at
    /// its new rate, and the number of filling rounds.
    pub fn solve(&mut self, now: f64) -> (f64, u64) {
        self.residual.copy_from_slice(&self.caps);
        self.load.copy_from_slice(&self.demand);
        self.share.copy_from_slice(&self.entry_share);
        for &slot in &self.active {
            self.slab[slot as usize].fixed = false;
        }
        let mut unfixed = self.active.len();
        let mut rounds = 0;
        let mut next = f64::INFINITY;
        while unfixed > 0 {
            rounds += 1;
            let min_share = min_of(&self.share);
            debug_assert!(min_share.is_finite(), "every flow crosses a finite-capacity core");
            // The bottlenecks are judged on the shares the round started
            // with: collect first, drain after.
            let limit = min_share * (1.0 + 1e-9);
            self.batch.clear();
            // No branch on the comparison: which resources tie for the
            // bottleneck is not predictable.
            let mut nhits = 0;
            for (r, &share) in self.share.iter().enumerate() {
                self.hits[nhits] = r as u32;
                nhits += usize::from(share <= limit);
            }
            for &r in &self.hits[..nhits] {
                for &slot in &self.incidence[r as usize] {
                    let f = &mut self.slab[slot as usize];
                    // A flow crossing two bottlenecks is fixed once.
                    if !f.fixed {
                        f.fixed = true;
                        self.batch.push((u64::from(f.op) << 32) | u64::from(slot));
                    }
                }
            }
            debug_assert!(!self.batch.is_empty());
            self.batch.sort_unstable();
            for &key in &self.batch {
                let slot = key as u32 as usize;
                let f = &mut self.slab[slot];
                f.rate = min_share;
                let drained_at = now + f.remaining / f.rate;
                if drained_at < next {
                    next = drained_at;
                }
                let base = slot * MAX_ROUTE;
                for &(r, mult) in &self.routes[base..base + f.hops as usize] {
                    let r = r as usize;
                    self.residual[r] -= mult * min_share;
                    self.load[r] -= mult;
                    self.share[r] = share_of(self.residual[r], self.load[r]);
                }
            }
            unfixed -= self.batch.len();
        }
        (next, rounds)
    }

    /// Traffic placed on each resource by the flows that finished.
    pub fn resource_bytes(&self) -> BTreeMap<Resource, f64> {
        self.resources.iter().copied().zip(self.traffic.iter().copied()).collect()
    }
}

/// Smallest element, four lanes at a time so the comparisons do not wait
/// for one another.
fn min_of(xs: &[f64]) -> f64 {
    let lesser = |a: f64, b: f64| if b < a { b } else { a };
    let (quads, rest) = xs.as_chunks::<4>();
    let mut lanes = [f64::INFINITY; 4];
    for quad in quads {
        for (lane, &x) in lanes.iter_mut().zip(quad) {
            *lane = lesser(*lane, x);
        }
    }
    rest.iter().chain(&lanes).copied().fold(f64::INFINITY, lesser)
}

/// What one unit of multiplicity gets of `residual`; unloaded resources
/// never bottleneck.
fn share_of(residual: f64, load: f64) -> f64 {
    if load > 0.0 {
        residual / load
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Textbook progressive filling, the oracle: plain routes, every flow
    /// scanned every round, flows in id order.
    fn reference_rates(flows: &[Vec<(usize, f64)>], caps: &[f64]) -> Vec<f64> {
        let mut residual = caps.to_vec();
        let mut load = vec![0.0; caps.len()];
        for &(r, m) in flows.iter().flatten() {
            load[r] += m;
        }
        let mut rates: Vec<Option<f64>> = vec![None; flows.len()];
        while rates.contains(&None) {
            let share: Vec<f64> = (0..caps.len()).map(|r| residual[r] / load[r]).collect();
            let loaded = |r: usize| load[r] > 0.0;
            let min_share = (0..caps.len())
                .filter(|&r| loaded(r))
                .map(|r| share[r])
                .fold(f64::INFINITY, f64::min);
            let bottlenecked: Vec<usize> = (0..flows.len())
                .filter(|&i| rates[i].is_none())
                .filter(|&i| {
                    flows[i].iter().any(|&(r, _)| loaded(r) && share[r] <= min_share * (1.0 + 1e-9))
                })
                .collect();
            for i in bottlenecked {
                rates[i] = Some(min_share);
                for &(r, m) in &flows[i] {
                    residual[r] -= m * min_share;
                    load[r] -= m;
                }
            }
        }
        rates.into_iter().map(|r| r.expect("fixed")).collect()
    }

    /// `(op, rate bits)` of the active flows in id order, beside what the
    /// oracle makes of the same flows.
    fn rates_and_reference(flows: &Flows) -> (Vec<u64>, Vec<u64>) {
        let mut slots = flows.active.clone();
        slots.sort_unstable_by_key(|&s| flows.slab[s as usize].op);
        let routes: Vec<Vec<(usize, f64)>> = slots
            .iter()
            .map(|&s| {
                let base = s as usize * MAX_ROUTE;
                flows.routes[base..base + flows.slab[s as usize].hops as usize]
                    .iter()
                    .map(|&(r, m)| (r as usize, m))
                    .collect()
            })
            .collect();
        let got = slots.iter().map(|&s| flows.slab[s as usize].rate.to_bits()).collect();
        let want = reference_rates(&routes, &flows.caps).into_iter().map(f64::to_bits).collect();
        (got, want)
    }

    /// Eight controllers: capacities repeat (exact share ties between
    /// resources) and two are degraded to awkward fractions.
    fn capacity(r: Resource) -> f64 {
        match r {
            Resource::Mc(2) => 12.0e9 * 0.37,
            Resource::Mc(5) => 12.0e9 * 0.05,
            Resource::Mc(i) => [6.0e9, 12.0e9][i % 2],
            _ => 4.0e9,
        }
    }

    /// A step of a random history: a flow of `bytes` over 1–4 distinct
    /// controllers with multiplicities 1–3, then `dt` seconds of progress.
    fn arb_step() -> impl Strategy<Value = (Vec<(usize, u32)>, usize, f64)> {
        let hops = prop::collection::vec((0usize..8, 1u32..4), 1..5).prop_map(|mut hops| {
            hops.sort_unstable();
            hops.dedup_by_key(|h| h.0);
            hops
        });
        (hops, 1usize..4_000_000, 0.0f64..4e-4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Through arrivals, progress and departures the flat solver's
        /// rates are the oracle's, bit for bit.
        #[test]
        fn flat_solver_matches_textbook_filling(steps in prop::collection::vec(arb_step(), 1..40)) {
            let mut flows = Flows::default();
            let mut now = 0.0;
            let mut finished = Vec::new();
            for (op, (hops, bytes, dt)) in steps.into_iter().enumerate() {
                let route: Vec<(Resource, u32)> =
                    hops.into_iter().map(|(i, m)| (Resource::Mc(i), m)).collect();
                flows.add(op, bytes, &route, capacity);
                prop_assert!(flows.take_changed());
                flows.solve(now);
                let (got, want) = rates_and_reference(&flows);
                prop_assert_eq!(got, want);

                now += dt;
                flows.advance(dt, now, &mut finished);
                if flows.take_changed() && !flows.is_empty() {
                    flows.solve(now);
                    let (got, want) = rates_and_reference(&flows);
                    prop_assert_eq!(got, want);
                }
            }
            // Every retired flow left its incidence lists and its demand.
            flows.advance(f64::MAX, f64::MAX, &mut finished);
            prop_assert!(flows.is_empty());
            prop_assert!(flows.incidence.iter().all(Vec::is_empty));
            prop_assert!(flows.demand.iter().all(|&d| d == 0.0));
        }
    }

    #[test]
    fn a_flow_on_two_bottlenecks_is_fixed_once() {
        // Two resources of equal capacity, each loaded by one private flow
        // and by the flow that crosses both: both are the first round's
        // bottleneck, and the shared flow sits on both incidence lists.
        let mut flows = Flows::default();
        let cap = |_| 9.0e9;
        flows.add(0, 1 << 20, &[(Resource::Mc(0), 1), (Resource::Mc(1), 1)], cap);
        flows.add(1, 1 << 20, &[(Resource::Mc(0), 2)], cap);
        flows.add(2, 1 << 20, &[(Resource::Mc(1), 2)], cap);
        let (next, rounds) = flows.solve(0.0);
        assert_eq!(rounds, 1, "one tie, one round");
        for f in &flows.slab {
            assert_eq!(f.rate, 3.0e9);
        }
        // Drained once per flow: each controller is left with nothing, not
        // with minus the shared flow's share.
        assert_eq!(flows.residual, [0.0, 0.0]);
        assert_eq!(flows.load, [0.0, 0.0]);
        assert_eq!(next, (1 << 20) as f64 / 3.0e9);
        let (got, want) = rates_and_reference(&flows);
        assert_eq!(got, want);
    }

    #[test]
    fn a_zero_length_step_retires_the_residue_the_clock_cannot_resolve() {
        // 1e-5 bytes left of 1 MiB at 4 GB/s: ten times the drain
        // threshold, 2.5e-15 s from done — and half an ulp of a clock at
        // 1000 s is 5.7e-14 s, so the flow drains "now".
        let now = 1000.0;
        let stuck = || {
            let mut flows = Flows::default();
            flows.add(3, 1 << 20, &[(Resource::Core(0), 1)], capacity);
            assert!(flows.take_changed());
            flows.solve(now);
            flows.slab[0].remaining = 1e-5;
            flows
        };
        let mut flows = stuck();
        let mut finished = Vec::new();
        assert_eq!(flows.advance(0.0, now, &mut finished), f64::INFINITY);
        assert_eq!(finished, [3]);
        assert!(flows.is_empty());

        // An event that already completed a notification may yet change
        // the flow set: the step retires nothing.
        let mut flows = stuck();
        let mut finished = vec![9];
        assert_eq!(flows.advance(0.0, now, &mut finished), now);
        assert_eq!(finished, [9]);
    }

    #[test]
    fn finished_flows_leave_their_traffic_behind() {
        // Powers of two throughout, so the expected times are exact.
        let gib = (1u64 << 30) as f64;
        let tick = 1.0 / (1u64 << 20) as f64;
        let mut flows = Flows::default();
        let route = [(Resource::Core(3), 1), (Resource::Mc(0), 2)];
        flows.add(7, 1024, &route, |_| gib);
        flows.solve(0.0);
        let mut finished = Vec::new();
        assert_eq!(flows.advance(tick, tick, &mut finished), 2.0 * tick);
        assert!(finished.is_empty());
        assert_eq!(flows.advance(tick, 2.0 * tick, &mut finished), f64::INFINITY);
        assert_eq!(finished, [7]);
        let bytes = flows.resource_bytes();
        assert_eq!(bytes[&Resource::Core(3)], 1024.0);
        assert_eq!(bytes[&Resource::Mc(0)], 2048.0);
    }
}
