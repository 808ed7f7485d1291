//! Interconnection network between compute clusters and memory partitions.
//!
//! A simple flit-accurate crossbar: each memory partition pulls request
//! packets from per-cluster injection FIFOs (head-of-line blocking, rotating
//! arbitration), and each cluster pulls response packets from per-partition
//! return FIFOs into its bounded ejection buffer. Transfers are serialized at
//! [`GpuConfig::icnt_flits_per_cycle`] flits per cycle per endpoint and add a
//! fixed pipeline latency.
//!
//! Arbitration ties are broken through the [`NdetSource`], which is one of
//! the modeled sources of GPU non-determinism: on the baseline machine the
//! *arrival order* of atomic transactions at a partition varies from run to
//! run, so the ROP applies floating-point reductions in a different order.
//!
//! [`GpuConfig::icnt_flits_per_cycle`]: crate::config::GpuConfig::icnt_flits_per_cycle
//! [`NdetSource`]: crate::ndet::NdetSource

use std::collections::VecDeque;

use crate::config::GpuConfig;
use crate::ndet::NdetSource;

use super::packet::Packet;

#[derive(Debug)]
struct Transfer {
    packet: Packet,
    arrive_cycle: u64,
}

/// The cluster↔partition interconnect.
///
/// Requests: `inject_request` (per cluster) → partition pull → arrive after
/// serialization + latency → `pop_arrived_request` (per partition).
/// Responses: `inject_response` (per partition) → cluster pull →
/// `pop_ejected` (per cluster), bounded by the cluster ejection buffer.
#[derive(Debug)]
pub struct Interconnect {
    num_clusters: usize,
    num_partitions: usize,
    flits_per_cycle: usize,
    latency: u32,
    input_buffer_flits: usize,
    ejection_buffer_flits: usize,

    /// Per-cluster request injection FIFOs (toward memory).
    cluster_out: Vec<VecDeque<Packet>>,
    /// Per-partition pipelined transfers (packets past arbitration, still
    /// traversing the network), ordered by arrival cycle.
    mem_pull: Vec<VecDeque<Transfer>>,
    /// Cycle at which each partition's input channel frees up
    /// (serialization occupancy, separate from pipeline latency).
    mem_free_at: Vec<u64>,
    /// Per-partition arrived-request queues (the Table I "input buffer").
    mem_in: Vec<VecDeque<Packet>>,
    /// Flits currently occupying each partition input buffer (incl. in-flight).
    mem_in_flits: Vec<usize>,
    /// Per-partition rotating arbitration pointer over clusters.
    mem_rr: Vec<usize>,

    /// Per-partition response injection FIFOs (toward clusters).
    part_out: Vec<VecDeque<Packet>>,
    /// Per-cluster pipelined transfers toward the cluster.
    cl_pull: Vec<VecDeque<Transfer>>,
    /// Cycle at which each cluster's ejection channel frees up.
    cl_free_at: Vec<u64>,
    /// Per-cluster ejection buffers.
    cl_in: Vec<VecDeque<Packet>>,
    /// Flits occupying each cluster ejection buffer (incl. in-flight).
    cl_in_flits: Vec<usize>,
    /// Per-cluster rotating arbitration pointer over partitions.
    cl_rr: Vec<usize>,

    /// Soft bound on each cluster injection FIFO, in flits.
    injection_capacity_flits: usize,
    cluster_out_flits: Vec<usize>,

    packets_moved: u64,
}

impl Interconnect {
    /// Builds the interconnect for `cfg`.
    pub fn new(cfg: &GpuConfig) -> Self {
        let nc = cfg.num_clusters;
        let np = cfg.num_mem_partitions;
        Self {
            num_clusters: nc,
            num_partitions: np,
            flits_per_cycle: cfg.icnt_flits_per_cycle,
            latency: cfg.icnt_latency,
            input_buffer_flits: cfg.icnt_input_buffer,
            ejection_buffer_flits: cfg.cluster_ejection_buffer,
            cluster_out: (0..nc).map(|_| VecDeque::new()).collect(),
            mem_pull: (0..np).map(|_| VecDeque::new()).collect(),
            mem_free_at: vec![0; np],
            mem_in: (0..np).map(|_| VecDeque::new()).collect(),
            mem_in_flits: vec![0; np],
            mem_rr: vec![0; np],
            part_out: (0..np).map(|_| VecDeque::new()).collect(),
            cl_pull: (0..nc).map(|_| VecDeque::new()).collect(),
            cl_free_at: vec![0; nc],
            cl_in: (0..nc).map(|_| VecDeque::new()).collect(),
            cl_in_flits: vec![0; nc],
            cl_rr: vec![0; nc],
            injection_capacity_flits: cfg.icnt_input_buffer,
            cluster_out_flits: vec![0; nc],
            packets_moved: 0,
        }
    }

    /// Whether cluster `c` can inject a request of `flits` flits this cycle.
    pub fn can_inject_request(&self, cluster: usize, flits: u32) -> bool {
        self.cluster_out_flits[cluster] + flits as usize <= self.injection_capacity_flits
    }

    /// Remaining request-injection headroom (in flits) for `cluster`: the
    /// budget [`can_inject_request`](Self::can_inject_request) tests
    /// against, floored at zero. The commit walk admits a packet of `f`
    /// flits while `f` fits in it, and each
    /// [`inject_request`](Self::inject_request) debits the packet's flits,
    /// so admission is per cluster and in walk order.
    pub fn request_injection_budget(&self, cluster: usize) -> u32 {
        let free = self
            .injection_capacity_flits
            .saturating_sub(self.cluster_out_flits[cluster]);
        u32::try_from(free).unwrap_or(u32::MAX)
    }

    /// Injects a request packet at cluster `c`.
    ///
    /// Callers should check [`can_inject_request`](Self::can_inject_request)
    /// first; injection past the bound is allowed but counts as buffer
    /// over-occupancy that keeps blocking subsequent injections.
    pub fn inject_request(&mut self, cluster: usize, packet: Packet) {
        debug_assert!(packet.dest < self.num_partitions);
        self.cluster_out_flits[cluster] += packet.flits as usize;
        self.cluster_out[cluster].push_back(packet);
    }

    /// Injects a response packet at partition `p`.
    pub fn inject_response(&mut self, partition: usize, packet: Packet) {
        debug_assert!(packet.dest < self.num_clusters);
        self.part_out[partition].push_back(packet);
    }

    /// Whether any request has fully arrived at partition `p` (a
    /// non-destructive peek; [`tick_partitions`] uses it to keep a
    /// partition asleep when it has neither buffered input nor a due
    /// internal event).
    ///
    /// [`tick_partitions`]: crate::engine::GpuSim
    pub fn has_arrived_request(&self, partition: usize) -> bool {
        !self.mem_in[partition].is_empty()
    }

    /// Pops one request that has fully arrived at partition `p`, if any.
    pub fn pop_arrived_request(&mut self, partition: usize) -> Option<Packet> {
        let pkt = self.mem_in[partition].pop_front()?;
        self.mem_in_flits[partition] -= pkt.flits as usize;
        Some(pkt)
    }

    /// Pops one response that has fully arrived at cluster `c`, if any.
    pub fn pop_ejected(&mut self, cluster: usize) -> Option<Packet> {
        let pkt = self.cl_in[cluster].pop_front()?;
        self.cl_in_flits[cluster] -= pkt.flits as usize;
        Some(pkt)
    }

    /// Registers the interconnect-owned metric family (`det.icnt.*`).
    /// Called once per run at simulator construction.
    pub fn register_metrics(registry: &mut obs::MetricsRegistry) {
        registry.counter(
            "det.icnt.packets_routed",
            "packets delivered end-to-end by the interconnect (both directions)",
        );
    }

    /// Total packets delivered since construction.
    pub fn packets_moved(&self) -> u64 {
        self.packets_moved
    }

    /// Flits currently queued at the cluster injection ports, waiting to
    /// enter the network — the backpressure signal sampled onto the
    /// observability time-series grid.
    pub fn queued_injection_flits(&self) -> u64 {
        self.cluster_out_flits.iter().map(|&f| f as u64).sum()
    }

    /// Whether any packet is buffered or in flight in either direction.
    pub fn is_busy(&self) -> bool {
        self.cluster_out.iter().any(|q| !q.is_empty())
            || self.part_out.iter().any(|q| !q.is_empty())
            || self.mem_pull.iter().any(|t| !t.is_empty())
            || self.cl_pull.iter().any(|t| !t.is_empty())
            || self.mem_in.iter().any(|q| !q.is_empty())
            || self.cl_in.iter().any(|q| !q.is_empty())
    }

    /// Advances the network by one cycle.
    ///
    /// `mem_ndet` holds one perturbation stream per memory partition and
    /// `cl_ndet` one per cluster: every arbitration point draws from its
    /// *own* stream (forked from the run seed via
    /// [`NdetSource::split`]), so the sequence one endpoint sees never
    /// depends on how work for other endpoints is ordered.
    ///
    /// # Panics
    ///
    /// Panics if a slice is shorter than the endpoint count.
    pub fn tick(&mut self, cycle: u64, mem_ndet: &mut [NdetSource], cl_ndet: &mut [NdetSource]) {
        assert!(
            mem_ndet.len() >= self.num_partitions,
            "stream per partition"
        );
        assert!(cl_ndet.len() >= self.num_clusters, "stream per cluster");
        self.tick_direction_mem(cycle, mem_ndet);
        self.tick_direction_cluster(cycle, cl_ndet);
    }

    fn tick_direction_mem(&mut self, cycle: u64, ndet: &mut [NdetSource]) {
        for (p, nd) in ndet.iter_mut().enumerate().take(self.num_partitions) {
            // Deliver transfers whose pipeline latency has elapsed
            // (in-flight queue is ordered by arrival cycle).
            while let Some(t) = self.mem_pull[p].front() {
                if t.arrive_cycle <= cycle {
                    let t = self.mem_pull[p].pop_front().expect("checked above");
                    self.mem_in[p].push_back(t.packet);
                    self.packets_moved += 1;
                } else {
                    break;
                }
            }
            // Start new pulls while the channel has serialization capacity
            // this cycle: occupancy is `flits / flits_per_cycle`, latency is
            // pipelined on top. The arbitration draw happens only when some
            // source queue could actually be served: the perturbation-stream
            // cursor must advance identically whether or not the engine
            // visits the (provably idle) cycles in between.
            while self.mem_free_at[p] <= cycle {
                if self.cluster_out.iter().all(|q| q.is_empty()) {
                    break;
                }
                // The draw perturbs the rotation start by at most one slot;
                // it is a branch point only when the two candidate starts
                // would serve different clusters (see `crate::oracle`).
                let eligible = nd.has_oracle()
                    && self.mem_candidate(p, self.mem_rr[p] % self.num_clusters)
                        != self.mem_candidate(p, (self.mem_rr[p] + 1) % self.num_clusters);
                let draw = nd.tiebreak_hint(2, crate::oracle::TAG_ICNT_MEM, eligible);
                let start = (self.mem_rr[p] + draw) % self.num_clusters;
                let mut started = false;
                for i in 0..self.num_clusters {
                    let c = (start + i) % self.num_clusters;
                    let Some(head) = self.cluster_out[c].front() else {
                        continue;
                    };
                    if head.dest != p {
                        continue;
                    }
                    let flits = head.flits as usize;
                    if self.mem_in_flits[p] + flits > self.input_buffer_flits {
                        // Input buffer full: backpressure this cluster.
                        continue;
                    }
                    let packet = self.cluster_out[c].pop_front().expect("front was Some");
                    self.cluster_out_flits[c] -= flits;
                    self.mem_in_flits[p] += flits;
                    let ser = flits.div_ceil(self.flits_per_cycle) as u64;
                    let begin = self.mem_free_at[p].max(cycle);
                    self.mem_free_at[p] = begin + ser;
                    self.mem_pull[p].push_back(Transfer {
                        packet,
                        arrive_cycle: begin + ser + self.latency as u64,
                    });
                    self.mem_rr[p] = (c + 1) % self.num_clusters;
                    started = true;
                    break;
                }
                if !started {
                    break;
                }
            }
        }
    }

    fn tick_direction_cluster(&mut self, cycle: u64, ndet: &mut [NdetSource]) {
        for (c, nd) in ndet.iter_mut().enumerate().take(self.num_clusters) {
            while let Some(t) = self.cl_pull[c].front() {
                if t.arrive_cycle <= cycle {
                    let t = self.cl_pull[c].pop_front().expect("checked above");
                    self.cl_in[c].push_back(t.packet);
                    self.packets_moved += 1;
                } else {
                    break;
                }
            }
            while self.cl_free_at[c] <= cycle {
                // Same draw discipline as the memory direction: no source
                // traffic, no arbitration draw.
                if self.part_out.iter().all(|q| q.is_empty()) {
                    break;
                }
                let eligible = nd.has_oracle()
                    && self.cl_candidate(c, self.cl_rr[c] % self.num_partitions)
                        != self.cl_candidate(c, (self.cl_rr[c] + 1) % self.num_partitions);
                let draw = nd.tiebreak_hint(2, crate::oracle::TAG_ICNT_CL, eligible);
                let start = (self.cl_rr[c] + draw) % self.num_partitions;
                let mut started = false;
                for i in 0..self.num_partitions {
                    let p = (start + i) % self.num_partitions;
                    let Some(head) = self.part_out[p].front() else {
                        continue;
                    };
                    if head.dest != c {
                        continue;
                    }
                    let flits = head.flits as usize;
                    if self.cl_in_flits[c] + flits > self.ejection_buffer_flits {
                        continue;
                    }
                    let packet = self.part_out[p].pop_front().expect("front was Some");
                    self.cl_in_flits[c] += flits;
                    let ser = flits.div_ceil(self.flits_per_cycle) as u64;
                    let begin = self.cl_free_at[c].max(cycle);
                    self.cl_free_at[c] = begin + ser;
                    self.cl_pull[c].push_back(Transfer {
                        packet,
                        arrive_cycle: begin + ser + self.latency as u64,
                    });
                    self.cl_rr[c] = (p + 1) % self.num_partitions;
                    started = true;
                    break;
                }
                if !started {
                    break;
                }
            }
        }
    }

    /// The cluster the memory-direction arbiter would serve for partition
    /// `p` when scanning from `start` — the draw's *immediate effect*,
    /// which decides whether an oracle decision is a branch point. Mirrors
    /// the scan in [`Self::tick_direction_mem`] exactly (destination match
    /// and input-buffer fit included).
    fn mem_candidate(&self, p: usize, start: usize) -> Option<usize> {
        for i in 0..self.num_clusters {
            let c = (start + i) % self.num_clusters;
            let Some(head) = self.cluster_out[c].front() else {
                continue;
            };
            if head.dest != p {
                continue;
            }
            if self.mem_in_flits[p] + head.flits as usize > self.input_buffer_flits {
                continue;
            }
            return Some(c);
        }
        None
    }

    /// The partition the cluster-direction arbiter would serve for cluster
    /// `c` when scanning from `start`; mirrors
    /// [`Self::tick_direction_cluster`].
    fn cl_candidate(&self, c: usize, start: usize) -> Option<usize> {
        for i in 0..self.num_partitions {
            let p = (start + i) % self.num_partitions;
            let Some(head) = self.part_out[p].front() else {
                continue;
            };
            if head.dest != c {
                continue;
            }
            if self.cl_in_flits[c] + head.flits as usize > self.ejection_buffer_flits {
                continue;
            }
            return Some(p);
        }
        None
    }

    /// One-line occupancy summary of every queue family, for diagnostics
    /// (matches the `lock.rs`/`dram.rs` panic-context style).
    pub fn queue_summary(&self) -> String {
        let occupied = |qs: &[VecDeque<Packet>]| -> String {
            let counts: Vec<String> = qs
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .map(|(i, q)| format!("{i}:{}", q.len()))
                .collect();
            if counts.is_empty() {
                "-".to_string()
            } else {
                counts.join(",")
            }
        };
        let in_flight = |ts: &[VecDeque<Transfer>]| -> usize { ts.iter().map(VecDeque::len).sum() };
        format!(
            "cluster_out[{}] mem_in_flight={} mem_in[{}] part_out[{}] cl_in_flight={} cl_in[{}] moved={}",
            occupied(&self.cluster_out),
            in_flight(&self.mem_pull),
            occupied(&self.mem_in),
            occupied(&self.part_out),
            in_flight(&self.cl_pull),
            occupied(&self.cl_in),
            self.packets_moved,
        )
    }

    /// Whether any *queued* (not merely in-flight) packet needs per-cycle
    /// service: injection FIFOs waiting for arbitration, or arrived packets
    /// waiting for their consumer. The event engine must visit the very next
    /// cycle while any of these is non-empty; in-flight transfers are
    /// excluded — their completions are folded through
    /// [`next_event_cycle`](Self::next_event_cycle) instead.
    pub fn has_queued_work(&self) -> bool {
        self.cluster_out.iter().any(|q| !q.is_empty())
            || self.part_out.iter().any(|q| !q.is_empty())
            || self.mem_in.iter().any(|q| !q.is_empty())
            || self.cl_in.iter().any(|q| !q.is_empty())
    }

    /// Earliest cycle at which an in-flight transfer completes, if any.
    /// Used by the engine's idle fast-forward.
    pub fn next_event_cycle(&self) -> Option<u64> {
        self.mem_pull
            .iter()
            .chain(self.cl_pull.iter())
            .filter_map(|q| q.front())
            .map(|t| t.arrive_cycle)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::packet::{Payload, WarpRef};

    fn cfg() -> GpuConfig {
        GpuConfig::tiny()
    }

    /// Disabled per-endpoint streams for `cfg` (mem, cluster).
    fn streams(c: &GpuConfig) -> (Vec<NdetSource>, Vec<NdetSource>) {
        (
            vec![NdetSource::disabled(); c.num_mem_partitions],
            vec![NdetSource::disabled(); c.num_clusters],
        )
    }

    fn load_req(dest: usize) -> Packet {
        Packet::new(
            dest,
            Payload::LoadReq {
                sector_addr: 0,
                warp: WarpRef { sm: 0, slot: 0 },
            },
            40,
        )
    }

    #[test]
    fn request_traverses() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        icnt.inject_request(0, load_req(1));
        let mut arrived = None;
        for cycle in 0..100 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            if let Some(p) = icnt.pop_arrived_request(1) {
                arrived = Some((cycle, p));
                break;
            }
        }
        let (cycle, p) = arrived.expect("packet should arrive");
        assert_eq!(p.dest, 1);
        // 1 flit / 2 fpc = 1 cycle serialization + 12 latency.
        assert!((12..20).contains(&cycle), "arrival at {cycle}");
        assert!(!icnt.is_busy());
    }

    #[test]
    fn response_traverses() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        icnt.inject_response(
            0,
            Packet::new(1, Payload::FlushAck { sm: 3 }, c.icnt_flit_size),
        );
        let mut got = false;
        for cycle in 0..100 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            if icnt.pop_ejected(1).is_some() {
                got = true;
                break;
            }
        }
        assert!(got);
    }

    #[test]
    fn fifo_order_preserved_per_cluster() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        for i in 0..5u64 {
            let mut p = load_req(0);
            if let Payload::LoadReq { sector_addr, .. } = &mut p.payload {
                *sector_addr = i * 32;
            }
            icnt.inject_request(0, p);
        }
        let mut order = Vec::new();
        for cycle in 0..500 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
            while let Some(p) = icnt.pop_arrived_request(0) {
                if let Payload::LoadReq { sector_addr, .. } = p.payload {
                    order.push(sector_addr / 32);
                }
            }
            if order.len() == 5 {
                break;
            }
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn injection_backpressure() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        assert!(icnt.can_inject_request(0, 1));
        for _ in 0..c.icnt_input_buffer {
            icnt.inject_request(0, load_req(0));
        }
        assert!(!icnt.can_inject_request(0, 1));
    }

    #[test]
    fn head_of_line_blocking() {
        // A head packet for a full partition blocks later packets for others.
        let mut c = cfg();
        c.icnt_input_buffer = 1; // tiny input buffer: nothing fits
        let mut icnt = Interconnect::new(&c);
        let (mut mem_ndet, mut cl_ndet) = streams(&c);
        let mut p = load_req(0);
        p.flits = 2; // can never fit into a 1-flit input buffer
        icnt.inject_request(0, p);
        icnt.inject_request(0, load_req(1));
        for cycle in 0..50 {
            icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
        }
        assert!(icnt.pop_arrived_request(1).is_none());
    }

    #[test]
    fn queue_summary_reports_occupancy() {
        let c = cfg();
        let mut icnt = Interconnect::new(&c);
        assert!(icnt.queue_summary().contains("cluster_out[-]"));
        icnt.inject_request(1, load_req(0));
        let summary = icnt.queue_summary();
        assert!(summary.contains("cluster_out[1:1]"), "got: {summary}");
    }

    #[test]
    fn ndet_tiebreak_changes_service_order() {
        // Two clusters contend for one partition; with different seeds the
        // winner can differ over many trials.
        let c = cfg();
        let run = |seed: u64| -> Vec<usize> {
            let mut icnt = Interconnect::new(&c);
            let root = NdetSource::seeded(seed);
            let mut mem_ndet: Vec<NdetSource> = (0..c.num_mem_partitions)
                .map(|p| root.split(p as u64))
                .collect();
            let mut cl_ndet: Vec<NdetSource> = (0..c.num_clusters)
                .map(|cl| root.split(0x100 + cl as u64))
                .collect();
            let mut order = Vec::new();
            for round in 0..20u64 {
                icnt.inject_request(0, load_req(0));
                icnt.inject_request(1, load_req(0));
                for cycle in round * 100..round * 100 + 100 {
                    icnt.tick(cycle, &mut mem_ndet, &mut cl_ndet);
                }
                while icnt.pop_arrived_request(0).is_some() {
                    order.push(0);
                }
            }
            order
        };
        // Identical seeds are reproducible.
        assert_eq!(run(7), run(7));
    }
}
