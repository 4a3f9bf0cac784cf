//! The cycle-based simulator.

use crate::faults::{DeadlockKind, DeadlockReport, FaultPlan, FaultStats, WaitHop};
use crate::stats::{SimReport, StatsAccum};
use crate::topology::Topology;
use crate::workload::Workload;
use std::collections::VecDeque;
use vnet_graph::cycles::elementary_cycles;
use vnet_graph::{Budget, DiGraph, NodeId, Provenance, Rng64};
use vnet_mc::exec::{deliver, inject, matching_cell, Firing};
use vnet_mc::{GlobalState, IcnOrder, InjectionBudget, McConfig, Msg, Node, VnMap};
use vnet_protocol::{Cell, ProtocolSpec, StateId, Trigger};

/// Simulator configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The router topology. The first `nodes − n_dirs` routers host
    /// caches; the rest host directories.
    pub topology: Topology,
    /// Number of addresses.
    pub n_addrs: usize,
    /// Number of directories.
    pub n_dirs: usize,
    /// Message → VN mapping.
    pub vns: VnMap,
    /// Per-(link, VN) FIFO depth.
    pub buffer_depth: usize,
    /// Cycles without any progress (while work is in flight) before the
    /// run is declared deadlocked.
    pub watchdog: u64,
    /// gem5-Ruby-style relaxed FIFOs (paper §VIII): a stalled message at
    /// the head of an input FIFO is recirculated to its tail, letting
    /// younger messages bypass it. Avoids many VN deadlocks at the cost
    /// of breaking per-VN point-to-point ordering.
    pub recirculate: bool,
    /// Fault-injection plan (empty by default — no faults).
    pub faults: FaultPlan,
    /// Seed for the fault-injection RNG stream.
    pub fault_seed: u64,
}

impl SimConfig {
    /// A default configuration with the textbook 3-VN mapping.
    ///
    /// # Panics
    ///
    /// Panics unless the topology has more than `n_dirs` nodes and the
    /// cache count fits the checker's 8-cache bitmask limit.
    pub fn new(spec: &ProtocolSpec, topology: Topology, n_addrs: usize, n_dirs: usize) -> Self {
        assert!(topology.nodes() > n_dirs, "need at least one cache node");
        assert!(topology.nodes() - n_dirs <= 8, "at most 8 caches");
        SimConfig {
            topology,
            n_addrs,
            n_dirs,
            vns: VnMap::textbook(spec),
            buffer_depth: 2,
            watchdog: 1_000,
            recirculate: false,
            faults: FaultPlan::none(),
            fault_seed: 0,
        }
    }

    /// Overrides the VN mapping.
    pub fn with_vns(mut self, vns: VnMap) -> Self {
        self.vns = vns;
        self
    }

    /// Overrides the per-(link, VN) buffer depth.
    pub fn with_buffer_depth(mut self, depth: usize) -> Self {
        self.buffer_depth = depth;
        self
    }

    /// Enables Ruby-style head-of-line recirculation (see the field doc).
    pub fn with_recirculation(mut self) -> Self {
        self.recirculate = true;
        self
    }

    /// Installs a fault-injection plan with its RNG seed.
    pub fn with_faults(mut self, plan: FaultPlan, seed: u64) -> Self {
        self.faults = plan;
        self.fault_seed = seed;
        self
    }

    /// Number of cache endpoints.
    pub fn n_caches(&self) -> usize {
        self.topology.nodes() - self.n_dirs
    }

    /// The buffer-cost proxy of §VI-C3: directed links × VNs × depth.
    pub fn buffer_cost(&self) -> usize {
        self.topology.links().len() * self.vns.n_vns() * self.buffer_depth
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    msg: Msg,
    moved_at: u64,
    /// Fault-injected hold: the message may not advance before this
    /// cycle (0 for unaffected messages).
    hold_until: u64,
}

/// The simulator itself.
#[derive(Debug)]
pub struct Simulator {
    spec: ProtocolSpec,
    cfg: SimConfig,
    mc_cfg: McConfig,
    routing: Vec<Vec<usize>>,
    links: Vec<(usize, usize)>,
    /// `link_bufs[l * n_vns + v]`.
    link_bufs: Vec<VecDeque<InFlight>>,
    /// `input_fifos[node * n_vns + v]`.
    input_fifos: Vec<VecDeque<InFlight>>,
    /// Unbounded per-(node, VN) output (source) queues.
    output_queues: Vec<VecDeque<InFlight>>,
    state: GlobalState,
    /// Per cache: the outstanding transaction `(addr, start_cycle)`.
    outstanding: Vec<Option<(usize, u64)>>,
    /// The deterministic fault stream (advanced only when the plan is
    /// non-empty, so an empty plan leaves runs bit-identical).
    fault_rng: Rng64,
    fault_stats: FaultStats,
}

impl Simulator {
    /// Builds a simulator for `spec` under `cfg`.
    pub fn new(spec: ProtocolSpec, cfg: SimConfig) -> Self {
        let n_caches = cfg.n_caches();
        // The checker's executable semantics need an `McConfig` for
        // endpoint counts and address homing; its ICN fields are unused
        // here (the simulator provides the network).
        let mc_cfg = McConfig {
            n_caches,
            n_addrs: cfg.n_addrs,
            n_dirs: cfg.n_dirs,
            vns: cfg.vns.clone(),
            order: IcnOrder::Unordered,
            global_capacity: 0,
            endpoint_capacity: 0,
            budget: InjectionBudget::PerCache(0),
            max_states: 0,
            max_depth: None,
            swmr: None,
            symmetry: false,
            spill: None,
        };
        let state = GlobalState::initial(&spec, &mc_cfg);
        let links = cfg.topology.links();
        let n_vns = cfg.vns.n_vns();
        let nodes = cfg.topology.nodes();
        Simulator {
            routing: cfg.topology.routing_table(),
            link_bufs: vec![VecDeque::new(); links.len() * n_vns],
            input_fifos: vec![VecDeque::new(); nodes * n_vns],
            output_queues: vec![VecDeque::new(); nodes * n_vns],
            links,
            fault_rng: Rng64::seed_from_u64(cfg.fault_seed),
            fault_stats: FaultStats::default(),
            spec,
            cfg,
            mc_cfg,
            state,
            outstanding: vec![None; n_caches],
        }
    }

    fn node_of(&self, ep: Node) -> usize {
        match ep {
            Node::Cache(c) => c as usize,
            Node::Dir(d) => self.cfg.n_caches() + d as usize,
        }
    }

    fn vn_of(&self, m: &Msg) -> usize {
        self.cfg.vns.vn_of(vnet_protocol::MsgId(m.msg as usize))
    }

    fn occupancy(&self) -> usize {
        self.link_bufs.iter().map(VecDeque::len).sum::<usize>()
            + self.input_fifos.iter().map(VecDeque::len).sum::<usize>()
            + self.output_queues.iter().map(VecDeque::len).sum::<usize>()
    }

    fn enqueue_sends(&mut self, src_node: usize, sends: Vec<Msg>, now: u64) {
        for m in sends {
            let vn = self.vn_of(&m);
            self.output_queues[src_node * self.cfg.vns.n_vns() + vn].push_back(InFlight {
                msg: m,
                moved_at: now,
                hold_until: 0,
            });
        }
    }

    fn link_is_down(&self, from: usize, to: usize, now: u64) -> bool {
        self.cfg.faults.link_is_down(from, to, now)
    }

    /// Applies per-link-entry faults (drop / duplicate / delay) and
    /// enqueues `inflight` into link buffer slot `li`. The caller has
    /// already verified capacity for at least one message.
    fn admit_to_link(&mut self, li: usize, vn: usize, inflight: InFlight, now: u64) {
        let mut m = InFlight {
            moved_at: now,
            ..inflight
        };
        let (drop_p, dup_p, delay_p, delay_c) = (
            self.cfg.faults.drop_prob,
            self.cfg.faults.dup_prob,
            self.cfg.faults.delay_prob,
            self.cfg.faults.delay_cycles,
        );
        if !self.cfg.faults.is_empty() && self.cfg.faults.targets_vn(vn) {
            if drop_p > 0.0 && self.fault_rng.gen_bool(drop_p) {
                self.fault_stats.dropped += 1;
                return;
            }
            if delay_p > 0.0 && self.fault_rng.gen_bool(delay_p) {
                self.fault_stats.delayed += 1;
                m.hold_until = now + delay_c;
            }
            if dup_p > 0.0
                && self.fault_rng.gen_bool(dup_p)
                && self.link_bufs[li].len() + 2 <= self.cfg.buffer_depth
            {
                self.fault_stats.duplicated += 1;
                self.link_bufs[li].push_back(m);
            }
        }
        self.link_bufs[li].push_back(m);
    }

    /// Runs `workload` for at most `max_cycles`. Consumes the simulator
    /// (one run per instance keeps the state accounting simple).
    pub fn run(self, workload: Workload, max_cycles: u64) -> SimReport {
        self.run_budgeted(workload, max_cycles, &Budget::unlimited()).0
    }

    /// [`Simulator::run`] under a [`Budget`]: the meter ticks once per
    /// simulated cycle, so a deadline, node limit, or fired
    /// [`CancelToken`](vnet_graph::CancelToken) stops the run within
    /// one cycle of its poll point. The report covers the cycles that
    /// did run; the provenance says whether the run was cut short.
    pub fn run_budgeted(
        mut self,
        mut workload: Workload,
        max_cycles: u64,
        budget: &Budget,
    ) -> (SimReport, Provenance) {
        let mut meter = budget.start();
        let n_vns = self.cfg.vns.n_vns();
        let n_caches = self.cfg.n_caches();
        let nodes = self.cfg.topology.nodes();
        let mut acc = StatsAccum::default();
        let mut idle_cycles = 0u64;
        let mut now = 0u64;
        let mut deadlocked = false;
        let mut deadlock: Option<DeadlockReport> = None;
        let mut model_error: Option<String> = None;

        while now < max_cycles {
            if !meter.tick() {
                break;
            }
            let mut progress = false;

            // --- 1. injection ---
            for c in 0..n_caches {
                if self.outstanding[c].is_some() {
                    continue;
                }
                let Some(&op) = workload.queues[c].first() else {
                    continue;
                };
                if op.at > now {
                    continue;
                }
                let line_state = self.state.line(c, op.addr).state;
                let cell = self
                    .spec
                    .cache()
                    .cell(StateId(line_state as usize), Trigger::core(op.op));
                match cell {
                    None => {
                        // Impossible op in this state (e.g. Evict in I):
                        // drop it.
                        workload.queues[c].remove(0);
                        progress = true;
                    }
                    Some(Cell::Stall) => {} // retry next cycle
                    Some(Cell::Entry(e)) if e.actions.is_empty() && e.next.is_none() => {
                        // Hit: completes instantly.
                        workload.queues[c].remove(0);
                        acc.record_latency(0);
                        progress = true;
                    }
                    Some(Cell::Entry(_)) => {
                        match inject(
                            &self.spec,
                            &self.mc_cfg,
                            &mut self.state,
                            c as u8,
                            op.addr as u8,
                            op.op,
                        ) {
                            Ok(Some(sends)) => {
                                workload.queues[c].remove(0);
                                self.outstanding[c] = Some((op.addr, now));
                                self.enqueue_sends(c, sends, now);
                                progress = true;
                            }
                            Ok(None) => {
                                // The entry was verified real above, so a
                                // no-op means a pure hit raced in: drop it.
                                workload.queues[c].remove(0);
                                progress = true;
                            }
                            Err(e) => {
                                model_error = Some(e.display(&self.spec));
                            }
                        }
                    }
                }
            }

            // --- 2. consumption (rotating VN priority for fairness) ---
            for node in 0..nodes {
                for k in 0..n_vns {
                    let vn = (k + now as usize) % n_vns;
                    let idx = node * n_vns + vn;
                    let Some(&inflight) = self.input_fifos[idx].front() else {
                        continue;
                    };
                    match deliver(&self.spec, &self.mc_cfg, &mut self.state, &inflight.msg) {
                        Firing::Stalled => {
                            // Ruby-style bypass: rotate the stalled head to
                            // the tail so younger messages get a chance.
                            if self.cfg.recirculate && self.input_fifos[idx].len() > 1 {
                                if let Some(head) = self.input_fifos[idx].pop_front() {
                                    self.input_fifos[idx].push_back(head);
                                }
                                // Rotation alone is not forward progress:
                                // if only rotations happen for the whole
                                // watchdog window, the run is wedged.
                            }
                        }
                        Firing::Undefined => {
                            // Specification bug: record and stop.
                            let st = match inflight.msg.dst {
                                Node::Cache(cc) => self
                                    .spec
                                    .cache()
                                    .state(StateId(
                                        self.state
                                            .line(cc as usize, inflight.msg.addr as usize)
                                            .state as usize,
                                    ))
                                    .name
                                    .clone(),
                                Node::Dir(_) => self
                                    .spec
                                    .directory()
                                    .state(StateId(
                                        self.state.dir(inflight.msg.addr as usize).state
                                            as usize,
                                    ))
                                    .name
                                    .clone(),
                            };
                            model_error = Some(format!(
                                "{} undefined in state {st}",
                                inflight.msg.display(&self.spec)
                            ));
                        }
                        Firing::Error(e) => {
                            // Dynamic specification bug: record and stop.
                            model_error = Some(e.display(&self.spec));
                        }
                        Firing::Fired { sends } => {
                            self.input_fifos[idx].pop_front();
                            self.enqueue_sends(node, sends, now);
                            progress = true;
                        }
                    }
                }
            }

            // --- 3. output queues feed first links / local delivery ---
            for node in 0..nodes {
                for vn in 0..n_vns {
                    let oq = node * n_vns + vn;
                    let Some(&inflight) = self.output_queues[oq].front() else {
                        continue;
                    };
                    if inflight.moved_at == now {
                        continue; // entered this cycle; moves next cycle
                    }
                    let dst_node = self.node_of(inflight.msg.dst);
                    if dst_node == node {
                        self.input_fifos[oq].push_back(InFlight {
                            moved_at: now,
                            ..inflight
                        });
                        self.output_queues[oq].pop_front();
                        progress = true;
                        continue;
                    }
                    let hop = self.routing[node][dst_node];
                    if self.link_is_down(node, hop, now) {
                        self.fault_stats.down_blocked += 1;
                        continue;
                    }
                    // The routing table only names next hops with a real
                    // link, so the lookup cannot miss; a message routed
                    // onto a nonexistent link simply never moves.
                    let Some(li) = self.link_pos(node, hop).map(|l| l * n_vns + vn) else {
                        continue;
                    };
                    if self.link_bufs[li].len() < self.cfg.buffer_depth {
                        self.output_queues[oq].pop_front();
                        self.admit_to_link(li, vn, inflight, now);
                        progress = true;
                    }
                }
            }

            // --- 4. link advancement (one hop per cycle per flit) ---
            // Fault: head-of-FIFO reorder strikes before advancement.
            if self.cfg.faults.reorder_prob > 0.0 {
                let reorder_p = self.cfg.faults.reorder_prob;
                for l in 0..self.links.len() {
                    for vn in 0..n_vns {
                        if !self.cfg.faults.targets_vn(vn) {
                            continue;
                        }
                        let li = l * n_vns + vn;
                        if self.link_bufs[li].len() >= 2 && self.fault_rng.gen_bool(reorder_p) {
                            self.fault_stats.reordered += 1;
                            self.link_bufs[li].swap(0, 1);
                        }
                    }
                }
            }
            for l in 0..self.links.len() {
                let (from, to) = self.links[l];
                if self.link_is_down(from, to, now) {
                    // Nothing traverses a dead link; count heads that
                    // wanted to move.
                    for vn in 0..n_vns {
                        if self.link_bufs[l * n_vns + vn]
                            .front()
                            .is_some_and(|m| m.moved_at != now)
                        {
                            self.fault_stats.down_blocked += 1;
                        }
                    }
                    continue;
                }
                for vn in 0..n_vns {
                    let li = l * n_vns + vn;
                    let Some(&inflight) = self.link_bufs[li].front() else {
                        continue;
                    };
                    if inflight.moved_at == now || now < inflight.hold_until {
                        continue;
                    }
                    let dst_node = self.node_of(inflight.msg.dst);
                    if to == dst_node {
                        // Arrive: into the endpoint input FIFO (unbounded
                        // at the endpoint, like the paper's model).
                        self.input_fifos[to * n_vns + vn].push_back(InFlight {
                            moved_at: now,
                            hold_until: 0,
                            ..inflight
                        });
                        self.link_bufs[li].pop_front();
                        progress = true;
                    } else {
                        let hop = self.routing[to][dst_node];
                        if self.link_is_down(to, hop, now) {
                            self.fault_stats.down_blocked += 1;
                            continue;
                        }
                        let Some(next_li) = self.link_pos(to, hop).map(|l2| l2 * n_vns + vn)
                        else {
                            continue; // see stage 3: routed hops always have a link
                        };
                        if self.link_bufs[next_li].len() < self.cfg.buffer_depth {
                            self.link_bufs[li].pop_front();
                            self.admit_to_link(next_li, vn, inflight, now);
                            progress = true;
                        }
                    }
                }
            }

            // --- 5. transaction completion ---
            for c in 0..n_caches {
                if let Some((addr, start)) = self.outstanding[c] {
                    let s = self.state.line(c, addr).state;
                    if !self.spec.cache().state(StateId(s as usize)).is_transient() {
                        acc.record_latency(now - start + 1);
                        self.outstanding[c] = None;
                    }
                }
            }

            acc.sample_occupancy(self.occupancy());
            now += 1;
            if model_error.is_some() {
                break;
            }

            // --- 6. termination / watchdog ---
            let work_left = self.occupancy() > 0
                || self.outstanding.iter().any(Option::is_some)
                || workload.queues.iter().any(|q| !q.is_empty());
            if !work_left {
                break;
            }
            if progress {
                idle_cycles = 0;
            } else {
                idle_cycles += 1;
                if idle_cycles >= self.cfg.watchdog {
                    deadlocked = true;
                    deadlock = Some(self.diagnose(now));
                    break;
                }
            }
        }

        let unfinished = workload.total_ops()
            + self.outstanding.iter().filter(|o| o.is_some()).count();
        let faults = (!self.cfg.faults.is_empty()).then(|| self.fault_stats.clone());
        let report = acc.finish(
            now,
            unfinished,
            deadlocked,
            model_error,
            n_vns,
            self.cfg.buffer_cost(),
            faults,
            deadlock,
        );
        (report, meter.provenance())
    }

    /// Post-mortem for a wedged run: builds the *wait-for graph* over
    /// the occupied network buffers and classifies the deadlock.
    ///
    /// Graph nodes are occupied buffers (output queues, link FIFOs,
    /// endpoint input FIFOs); an edge `A → B` means "A's head message
    /// cannot move until B drains". A blocked link head waits on the
    /// full downstream buffer it wants to enter; a stalled endpoint
    /// head waits on every buffer still holding traffic destined to
    /// that endpoint (one of which carries — or carried — the message
    /// the controller is waiting for). An elementary cycle in this
    /// graph is the signature of VN under-provisioning: the hops name
    /// exactly which messages on which VNs form the standoff. No cycle
    /// means the network drained into a quiescent-but-incomplete state,
    /// which only message loss (faults) can explain.
    fn diagnose(&self, now: u64) -> DeadlockReport {
        let n_vns = self.cfg.vns.n_vns();
        let nodes = self.cfg.topology.nodes();

        struct Site {
            label: String,
            vn: usize,
            msg: String,
        }
        let mut g: DiGraph<Site, ()> = DiGraph::new();
        let mut oq_node: Vec<Option<NodeId>> = vec![None; self.output_queues.len()];
        let mut lb_node: Vec<Option<NodeId>> = vec![None; self.link_bufs.len()];
        let mut if_node: Vec<Option<NodeId>> = vec![None; self.input_fifos.len()];

        for node in 0..nodes {
            for vn in 0..n_vns {
                let idx = node * n_vns + vn;
                if let Some(head) = self.output_queues[idx].front() {
                    oq_node[idx] = Some(g.add_node(Site {
                        label: format!("output queue of router {node}"),
                        vn,
                        msg: head.msg.display(&self.spec),
                    }));
                }
                if let Some(head) = self.input_fifos[idx].front() {
                    if_node[idx] = Some(g.add_node(Site {
                        label: format!("input FIFO of router {node}"),
                        vn,
                        msg: head.msg.display(&self.spec),
                    }));
                }
            }
        }
        for (l, &(from, to)) in self.links.iter().enumerate() {
            for vn in 0..n_vns {
                let li = l * n_vns + vn;
                if let Some(head) = self.link_bufs[li].front() {
                    lb_node[li] = Some(g.add_node(Site {
                        label: format!("link {from}→{to}"),
                        vn,
                        msg: head.msg.display(&self.spec),
                    }));
                }
            }
        }

        // Output queue heads wait on the full first-hop link buffer.
        for node in 0..nodes {
            for vn in 0..n_vns {
                let idx = node * n_vns + vn;
                let (Some(src), Some(head)) = (oq_node[idx], self.output_queues[idx].front())
                else {
                    continue;
                };
                let dst_node = self.node_of(head.msg.dst);
                if dst_node == node {
                    continue; // local delivery never blocks
                }
                let hop = self.routing[node][dst_node];
                if let Some(li) = self.link_pos(node, hop).map(|l| l * n_vns + vn) {
                    if self.link_bufs[li].len() >= self.cfg.buffer_depth {
                        if let Some(dst) = lb_node[li] {
                            g.add_edge(src, dst, ());
                        }
                    }
                }
            }
        }
        // Link heads wait on the full next-hop link buffer.
        for (l, &(_, to)) in self.links.iter().enumerate() {
            for vn in 0..n_vns {
                let li = l * n_vns + vn;
                let (Some(src), Some(head)) = (lb_node[li], self.link_bufs[li].front()) else {
                    continue;
                };
                let dst_node = self.node_of(head.msg.dst);
                if to == dst_node {
                    continue; // arrival into the unbounded endpoint FIFO
                }
                let hop = self.routing[to][dst_node];
                if let Some(next_li) = self.link_pos(to, hop).map(|l2| l2 * n_vns + vn) {
                    if self.link_bufs[next_li].len() >= self.cfg.buffer_depth {
                        if let Some(dst) = lb_node[next_li] {
                            g.add_edge(src, dst, ());
                        }
                    }
                }
            }
        }
        // Stalled endpoint heads wait on every buffer still carrying
        // traffic destined to that endpoint.
        for node in 0..nodes {
            for vn in 0..n_vns {
                let idx = node * n_vns + vn;
                let (Some(src), Some(head)) = (if_node[idx], self.input_fifos[idx].front())
                else {
                    continue;
                };
                if !matches!(
                    matching_cell(&self.spec, &self.state, &head.msg),
                    Some(Cell::Stall)
                ) {
                    continue;
                }
                // The awaited message may sit *behind* the stalled head
                // in its own FIFO (head-of-line blocking): a one-hop
                // wait cycle. Every message in a node's input FIFO is
                // destined to that node, so occupancy > 1 suffices.
                if self.input_fifos[idx].len() > 1 {
                    g.add_edge(src, src, ());
                }
                let mut wait_on = |dst: Option<NodeId>, holds: &VecDeque<InFlight>| {
                    let Some(dst) = dst else { return };
                    if dst == src {
                        return;
                    }
                    if holds.iter().any(|m| self.node_of(m.msg.dst) == node) {
                        g.add_edge(src, dst, ());
                    }
                };
                for (&dst, holds) in if_node.iter().zip(&self.input_fifos) {
                    wait_on(dst, holds);
                }
                for (&dst, holds) in oq_node.iter().zip(&self.output_queues) {
                    wait_on(dst, holds);
                }
                for (&dst, holds) in lb_node.iter().zip(&self.link_bufs) {
                    wait_on(dst, holds);
                }
            }
        }

        let stuck_messages = self.occupancy();
        let cycles = elementary_cycles(&g, 64);
        let kind = if let Some(best) = cycles.iter().min_by_key(|c| c.len()) {
            let hops: Vec<WaitHop> = best
                .nodes(&g)
                .into_iter()
                .map(|nid| {
                    let s = g.node(nid);
                    WaitHop {
                        site: s.label.clone(),
                        vn: s.vn,
                        msg: s.msg.clone(),
                    }
                })
                .collect();
            let mut vns: Vec<usize> = hops.iter().map(|h| h.vn).collect();
            vns.sort_unstable();
            vns.dedup();
            DeadlockKind::Structural { cycle: hops, vns }
        } else if self.fault_stats.dropped > 0 || self.fault_stats.down_blocked > 0 {
            let mut down_links: Vec<(usize, usize)> = self
                .cfg
                .faults
                .link_down
                .iter()
                .map(|d| (d.from, d.to))
                .collect();
            down_links.sort_unstable();
            down_links.dedup();
            DeadlockKind::FaultStarvation {
                dropped: self.fault_stats.dropped,
                down_links,
            }
        } else {
            DeadlockKind::Unexplained
        };
        DeadlockReport {
            at_cycle: now,
            stuck_messages,
            kind,
        }
    }

    /// Index of the `from → to` link, or `None` when no such link
    /// exists. Total by design: nothing in the simulator may panic on a
    /// routing surprise.
    fn link_pos(&self, from: usize, to: usize) -> Option<usize> {
        self.links.iter().position(|&l| l == (from, to))
    }
}

/// Convenience: derive the minimal VN mapping for `spec` via `vnet-core`
/// and return it as a checker/simulator [`VnMap`], or `None` for Class-2
/// protocols.
pub fn minimal_vn_map(spec: &ProtocolSpec) -> Option<VnMap> {
    let outcome = vnet_core::minimize_vns(spec);
    outcome
        .assignment()
        .map(|a| VnMap::from_assignment(a, spec.messages().len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Op;
    use vnet_protocol::{protocols, CoreOp};

    // Failures surface as `Err` values, not panics — the simulator's
    // panic-free discipline extends to its own test suite.
    type TestResult = Result<(), String>;

    fn vn_map(spec: &ProtocolSpec) -> Result<VnMap, String> {
        minimal_vn_map(spec).ok_or_else(|| format!("{} is not Class 3", spec.name()))
    }

    #[test]
    fn single_write_completes_on_ring() {
        let spec = protocols::msi_nonblocking_cache();
        let cfg = SimConfig::new(&spec, Topology::Ring(4), 1, 1);
        let w = Workload::script(
            3,
            [Op { at: 0, cache: 0, addr: 0, op: CoreOp::Store }],
        );
        let r = Simulator::new(spec, cfg).run(w, 10_000);
        assert!(!r.deadlocked);
        assert_eq!(r.model_error, None);
        assert_eq!(r.completed_transactions, 1);
        assert!(r.avg_latency >= 4.0, "a write crosses the ring twice");
        assert_eq!(r.unfinished_ops, 0);
    }

    #[test]
    fn random_workload_completes_with_minimal_vns() -> TestResult {
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        let cfg = SimConfig::new(&spec, Topology::Mesh(2, 3), 2, 2).with_vns(vns);
        let w = Workload::uniform_random(4, 2, 20, 7);
        let r = Simulator::new(spec, cfg).run(w, 200_000);
        assert!(!r.deadlocked, "minimal mapping must not wedge");
        assert_eq!(r.model_error, None);
        assert_eq!(r.unfinished_ops, 0);
        assert!(r.completed_transactions > 0);
        Ok(())
    }

    #[test]
    fn chi_write_storm_flows_with_two_vns() -> TestResult {
        let spec = protocols::chi();
        let vns = vn_map(&spec)?;
        let cfg = SimConfig::new(&spec, Topology::Ring(5), 2, 2).with_vns(vns);
        let w = Workload::write_storm(3, 2, 10, 3);
        let r = Simulator::new(spec, cfg).run(w, 500_000);
        assert!(!r.deadlocked);
        assert_eq!(r.model_error, None);
        assert_eq!(r.unfinished_ops, 0);
        assert_eq!(r.n_vns, 2);
        Ok(())
    }

    #[test]
    fn buffer_cost_scales_with_vns() -> TestResult {
        let spec = protocols::chi();
        let two = SimConfig::new(&spec, Topology::Ring(5), 2, 2)
            .with_vns(vn_map(&spec)?);
        let four = SimConfig::new(&spec, Topology::Ring(5), 2, 2).with_vns(VnMap::from_vns(
            spec.messages()
                .iter()
                .enumerate()
                .map(|(i, _)| i % 4)
                .collect(),
        ));
        assert_eq!(four.buffer_cost(), 2 * two.buffer_cost());
        Ok(())
    }

    #[test]
    fn recirculation_substitutes_for_vns() {
        // The §VIII observation: Ruby-style relaxed FIFOs let a single
        // VN survive workloads that deadlock strict FIFOs.
        let spec = protocols::msi_nonblocking_cache();
        let single = VnMap::single(spec.messages().len());
        // Seed 23 wedges the strict single-VN run (see vn_cost_sweep).
        let strict = SimConfig::new(&spec, Topology::Mesh(3, 2), 2, 2)
            .with_vns(single.clone());
        let w = Workload::uniform_random(strict.n_caches(), 2, 40, 23);
        let r = Simulator::new(spec.clone(), strict).run(w.clone(), 300_000);
        assert!(r.deadlocked);

        let relaxed = SimConfig::new(&spec, Topology::Mesh(3, 2), 2, 2)
            .with_vns(single)
            .with_recirculation();
        let r = Simulator::new(spec.clone(), relaxed).run(w, 300_000);
        assert!(!r.deadlocked, "recirculation should bypass the stall");
        assert_eq!(r.model_error, None);
        assert_eq!(r.unfinished_ops, 0);
    }

    #[test]
    fn single_vn_wedge_is_diagnosed_as_structural() -> TestResult {
        // The recirculation test's strict twin: the watchdog must not
        // just say "deadlocked" but name the wait cycle and its VN.
        let spec = protocols::msi_nonblocking_cache();
        let single = VnMap::single(spec.messages().len());
        let cfg = SimConfig::new(&spec, Topology::Mesh(3, 2), 2, 2).with_vns(single);
        let w = Workload::uniform_random(cfg.n_caches(), 2, 40, 23);
        let r = Simulator::new(spec, cfg).run(w, 300_000);
        assert!(r.deadlocked);
        let report = r.deadlock.ok_or("wedged runs carry a post-mortem")?;
        assert!(report.stuck_messages > 0);
        match report.kind {
            DeadlockKind::Structural { ref cycle, ref vns } => {
                assert!(!cycle.is_empty());
                assert_eq!(vns, &[0], "single-VN config wedges on VN0");
                for hop in cycle {
                    assert_eq!(hop.vn, 0);
                    assert!(!hop.msg.is_empty());
                }
                Ok(())
            }
            ref other => Err(format!("expected structural deadlock, got {other:?}")),
        }
    }

    #[test]
    fn dropped_request_starves_not_structural() -> TestResult {
        // Drop every message at its first link: the requester waits on
        // a reply that no longer exists. No wait cycle — the VN mapping
        // is not implicated, and the report must say so.
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        let cfg = SimConfig::new(&spec, Topology::Ring(4), 1, 1)
            .with_vns(vns)
            .with_faults(FaultPlan::none().with_drop(1.0), 7);
        let w = Workload::script(
            3,
            [Op { at: 0, cache: 0, addr: 0, op: CoreOp::Store }],
        );
        let r = Simulator::new(spec, cfg).run(w, 50_000);
        assert!(r.deadlocked, "the lone Store can never complete");
        let stats = r.faults.ok_or("fault plan was installed")?;
        assert!(stats.dropped > 0);
        let report = r.deadlock.ok_or("post-mortem")?;
        match report.kind {
            DeadlockKind::FaultStarvation { dropped, .. } => {
                assert!(dropped > 0);
                Ok(())
            }
            ref other => Err(format!("expected fault starvation, got {other:?}")),
        }
    }

    #[test]
    fn permanent_link_outage_is_fault_starvation() -> TestResult {
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        // Ring(3): cache 0,1 / dir at node 2. Kill both links out of
        // node 0 for the whole run.
        let plan = FaultPlan::none()
            .with_link_down(0, 1, 0, u64::MAX)
            .with_link_down(0, 2, 0, u64::MAX);
        let cfg = SimConfig::new(&spec, Topology::Ring(3), 1, 1)
            .with_vns(vns)
            .with_faults(plan, 1);
        let w = Workload::script(
            2,
            [Op { at: 0, cache: 0, addr: 0, op: CoreOp::Load }],
        );
        let r = Simulator::new(spec, cfg).run(w, 50_000);
        assert!(r.deadlocked);
        let stats = r.faults.ok_or("fault plan was installed")?;
        assert!(stats.down_blocked > 0);
        match r.deadlock.ok_or("post-mortem")?.kind {
            DeadlockKind::FaultStarvation { ref down_links, .. } => {
                assert_eq!(down_links, &[(0, 1), (0, 2)]);
                Ok(())
            }
            ref other => Err(format!("expected fault starvation, got {other:?}")),
        }
    }

    #[test]
    fn fault_runs_are_deterministic_per_seed() -> TestResult {
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        let plan = FaultPlan::parse("drop=0.02,dup=0.01,delay=0.05:3,reorder=0.1")
            .map_err(|e| e.to_string())?;
        let run = |seed: u64| {
            let cfg = SimConfig::new(&spec, Topology::Mesh(2, 3), 2, 2)
                .with_vns(vns.clone())
                .with_faults(plan.clone(), seed);
            let w = Workload::uniform_random(4, 2, 20, 7);
            Simulator::new(spec.clone(), cfg).run(w, 200_000)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same plan + seed must be bit-identical");
        // A different seed perturbs differently (the stats, at least,
        // are overwhelmingly unlikely to coincide exactly).
        let c = run(43);
        assert!(a.faults.is_some());
        assert_ne!(
            a.faults, c.faults,
            "different seeds should fire different fault sequences"
        );
        Ok(())
    }

    #[test]
    fn delays_slow_but_never_starve() -> TestResult {
        // Delay loses no messages and preserves order, so a sound
        // mapping still completes the workload — only slower.
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        let clean = SimConfig::new(&spec, Topology::Ring(4), 2, 1).with_vns(vns.clone());
        let w = Workload::uniform_random(clean.n_caches(), 2, 20, 11);
        let base = Simulator::new(spec.clone(), clean).run(w.clone(), 200_000);
        assert!(!base.deadlocked);
        assert_eq!(base.unfinished_ops, 0);

        let plan = FaultPlan::none().with_delay(0.5, 6);
        let faulty = SimConfig::new(&spec, Topology::Ring(4), 2, 1)
            .with_vns(vns)
            .with_faults(plan, 5);
        let r = Simulator::new(spec, faulty).run(w, 200_000);
        assert!(!r.deadlocked, "delays cannot starve a sound mapping");
        assert_eq!(r.unfinished_ops, 0);
        let stats = r.faults.ok_or("plan installed")?;
        assert!(stats.delayed > 0);
        assert_eq!(stats.dropped, 0);
        assert!(r.avg_latency > base.avg_latency, "delays must cost latency");
        Ok(())
    }

    #[test]
    fn reorder_wedges_strict_fifos_but_not_relaxed_ones() -> TestResult {
        // Reordering two messages on a link can put a stalling message
        // ahead of the one its controller is waiting for — exactly the
        // inversion Ruby-style recirculation exists to absorb. Strict
        // FIFOs may wedge (a *structural* head-of-line cycle, correctly
        // attributed); relaxed FIFOs must drain.
        let spec = protocols::msi_nonblocking_cache();
        let vns = vn_map(&spec)?;
        let plan = FaultPlan::none().with_reorder(0.5);
        let w = Workload::uniform_random(4, 2, 30, 9);

        let relaxed = SimConfig::new(&spec, Topology::Mesh(2, 3), 2, 2)
            .with_vns(vns.clone())
            .with_faults(plan.clone(), 21)
            .with_recirculation();
        let r = Simulator::new(spec.clone(), relaxed).run(w.clone(), 300_000);
        assert!(!r.deadlocked, "recirculation absorbs reorder inversions");
        assert_eq!(r.unfinished_ops, 0);
        assert!(r.faults.ok_or("plan installed")?.reordered > 0);

        // Strict twin: whatever happens, the run must terminate with a
        // classified outcome, never hang or panic.
        let strict = SimConfig::new(&spec, Topology::Mesh(2, 3), 2, 2)
            .with_vns(vns)
            .with_faults(plan, 21);
        let r = Simulator::new(spec, strict).run(w, 300_000);
        if r.deadlocked {
            let report = r.deadlock.ok_or("post-mortem")?;
            assert!(matches!(report.kind, DeadlockKind::Structural { .. }));
        } else {
            assert_eq!(r.unfinished_ops, 0);
        }
        Ok(())
    }

    #[test]
    fn hits_complete_instantly() {
        let spec = protocols::msi_nonblocking_cache();
        let cfg = SimConfig::new(&spec, Topology::Ring(3), 1, 1);
        // Load twice: miss then hit.
        let w = Workload::script(
            2,
            [
                Op { at: 0, cache: 0, addr: 0, op: CoreOp::Load },
                Op { at: 0, cache: 0, addr: 0, op: CoreOp::Load },
            ],
        );
        let r = Simulator::new(spec, cfg).run(w, 10_000);
        assert_eq!(r.completed_transactions, 2);
        assert!(!r.deadlocked);
    }
}
