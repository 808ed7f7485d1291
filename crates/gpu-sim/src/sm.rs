//! Streaming multiprocessor state: warp contexts, CTA occupancy, barriers,
//! and the deterministic batch accounting of Section IV-C5.
//!
//! The SM is a passive data structure; the [`engine`](crate::engine) drives
//! issue and memory traffic. What lives here is the state the paper's
//! determinism argument rests on:
//!
//! - every warp carries a deterministic `unique` id (derived from its CTA
//!   and intra-CTA index, never from timing), which all determinism-aware
//!   schedulers order by;
//! - warps arriving at a scheduler are grouped into *batches* (hardware-slot
//!   generations); atomics from batch *b+1* may not issue until every warp
//!   of batch *b* has exited, so buffer fill order stays deterministic even
//!   though slot reuse timing is not.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::config::GpuConfig;
use crate::exec::SchedCensus;
use crate::imeta::WarpMeta;
use crate::isa::{Instr, WarpProgram};
use crate::kernel::CtaSpec;
use crate::mem::cache::SectoredCache;
use crate::sched::{make_scheduler, SchedKind, WarpScheduler, WarpView};

/// Execution state of a warp context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// May issue once `next_ready` is reached.
    Ready,
    /// Blocked until all outstanding load sectors return.
    WaitMem,
    /// Arrived at a CTA barrier, waiting for siblings.
    WaitBarrier,
    /// Waiting for the execution model to wake it (DAB flush, GPUDet token).
    WaitFlush,
    /// Waiting for the deterministic lock manager.
    WaitLock,
    /// Blocked on a returning `atom` acknowledgement.
    WaitAtom,
    /// Draining outstanding writes (fence, or exit with writes in flight).
    WaitDrain,
}

/// A resident warp.
#[derive(Debug)]
pub struct WarpCtx {
    /// Deterministic kernel-wide warp id (`cta_id * warps_per_cta + idx`).
    pub unique: u64,
    /// Runtime CTA instance key within this SM (for barrier bookkeeping).
    pub cta_key: u64,
    /// Owning scheduler index.
    pub sched: usize,
    /// Per-scheduler batch (hardware-slot generation) of this warp.
    pub batch: u64,
    /// Per-scheduler arrival sequence (the GTO age).
    pub arrival: u64,
    /// The warp's instruction stream.
    pub program: Arc<WarpProgram>,
    /// Precomputed seed-invariant per-instruction metadata (sector lists,
    /// atomic coalescing groups), parallel to `program.instrs`. Shared
    /// read-only by every warp running the same program.
    pub meta: Arc<WarpMeta>,
    /// Next instruction index.
    pub pc: usize,
    /// Remaining issues of the current run-length-encoded ALU burst.
    pub alu_rem: u32,
    /// Execution state.
    pub state: WarpState,
    /// Earliest cycle the warp may issue again.
    pub next_ready: u64,
    /// Outstanding load sectors (blocks the warp).
    pub outstanding_loads: u32,
    /// Outstanding store/atomic acks (drained by fences, not blocking).
    pub outstanding_writes: u32,
    /// Occurrence counters per lock address, for deterministic tickets.
    pub lock_occurrences: Vec<(u64, u32)>,
}

impl WarpCtx {
    /// The warp's next instruction, if any.
    pub fn next_instr(&self) -> Option<&Instr> {
        self.program.instrs.get(self.pc)
    }

    /// Whether the next instruction is an atomic reduction.
    pub fn next_is_atomic(&self) -> bool {
        self.next_instr().is_some_and(Instr::is_atomic)
    }

    /// Whether the warp has retired every instruction.
    pub fn finished(&self) -> bool {
        self.pc >= self.program.instrs.len()
    }

    /// Bumps and returns the occurrence index for a locked section on
    /// `lock_addr` (deterministic ticket component).
    pub fn next_lock_occurrence(&mut self, lock_addr: u64) -> u32 {
        if let Some(entry) = self.lock_occurrences.iter_mut().find(|e| e.0 == lock_addr) {
            let occ = entry.1;
            entry.1 += 1;
            occ
        } else {
            self.lock_occurrences.push((lock_addr, 1));
            0
        }
    }
}

/// Per-scheduler bookkeeping: policy instance, arrival/batch accounting, and
/// census counters.
#[derive(Debug)]
pub struct SchedulerCtx {
    /// The scheduling policy.
    pub policy: Box<dyn WarpScheduler>,
    /// Hardware slots this scheduler manages (`max_warps / num_schedulers`).
    pub width: usize,
    /// Warps ever arrived (drives batch assignment).
    pub arrivals: u64,
    /// Arrivals per batch.
    batch_sizes: BTreeMap<u64, u32>,
    /// Exits per batch.
    batch_exits: BTreeMap<u64, u32>,
    /// All batches `< completed_batches` have fully exited.
    pub completed_batches: u64,
    /// Live warps (census).
    pub live: u32,
    /// Flush-waiting warps (census).
    pub flush_wait: u32,
    /// Warps waiting at an incomplete CTA barrier (census).
    pub barrier_wait: u32,
    /// Lower bound on the earliest cycle any of this scheduler's warps can
    /// be picked (`u64::MAX` when none is in [`WarpState::Ready`]).
    ///
    /// Invariant: whenever a warp of this scheduler is pickable at cycle
    /// `c`, `ready_bound <= c`. The bound may be stale-*low* (the warp it
    /// tracked has since issued or parked) — the event engine then pays one
    /// empty scheduler visit and tightens it via
    /// [`Sm::recompute_ready_bound`] — but it is never stale-high, so the
    /// activity-driven engine can skip any scheduler with
    /// `ready_bound > cycle` without changing behavior. Every transition
    /// into `Ready` must go through [`note_ready`](Self::note_ready).
    pub ready_bound: u64,
}

impl SchedulerCtx {
    fn new(kind: SchedKind, width: usize, atomic_exec_latency: u32) -> Self {
        Self {
            policy: make_scheduler(kind, atomic_exec_latency),
            width,
            arrivals: 0,
            batch_sizes: BTreeMap::new(),
            batch_exits: BTreeMap::new(),
            completed_batches: 0,
            live: 0,
            flush_wait: 0,
            barrier_wait: 0,
            ready_bound: u64::MAX,
        }
    }

    /// Lowers the ready bound: a warp of this scheduler became pickable no
    /// earlier than cycle `t`. Called at every wake site and warp spawn.
    pub fn note_ready(&mut self, t: u64) {
        self.ready_bound = self.ready_bound.min(t);
    }

    /// Registers a warp arrival and returns `(batch, arrival_seq)`.
    pub fn register_arrival(&mut self) -> (u64, u64) {
        let arrival = self.arrivals;
        let batch = arrival / self.width as u64;
        self.arrivals += 1;
        *self.batch_sizes.entry(batch).or_insert(0) += 1;
        self.live += 1;
        (batch, arrival)
    }

    /// Registers a warp exit and updates completed-batch accounting.
    ///
    /// `no_more_arrivals` is true once the kernel has dispatched every CTA:
    /// only then may a partially-filled batch complete.
    pub fn register_exit(&mut self, batch: u64, no_more_arrivals: bool) {
        *self.batch_exits.entry(batch).or_insert(0) += 1;
        self.live -= 1;
        self.advance_completed(no_more_arrivals);
    }

    /// Re-evaluates batch completion (also called when dispatch finishes).
    /// Returns `true` when `completed_batches` advanced — the batch gate
    /// opened for a later batch, so the event engine must re-arm
    /// `ready_bound` (gated warps are excluded from the bound).
    pub fn advance_completed(&mut self, no_more_arrivals: bool) -> bool {
        let before = self.completed_batches;
        loop {
            let b = self.completed_batches;
            let size = self.batch_sizes.get(&b).copied().unwrap_or(0);
            let exits = self.batch_exits.get(&b).copied().unwrap_or(0);
            let fully_populated = size as usize == self.width || no_more_arrivals;
            let batch_done = size > 0 && exits == size && fully_populated;
            let empty_tail =
                size == 0 && no_more_arrivals && b < self.arrivals.div_ceil(self.width as u64);
            if batch_done || empty_tail {
                self.completed_batches += 1;
            } else {
                break;
            }
        }
        self.completed_batches != before
    }

    /// Whether a warp of `batch` may issue atomics now (all earlier batches
    /// fully exited).
    pub fn batch_may_issue_atomics(&self, batch: u64) -> bool {
        batch <= self.completed_batches
    }

    /// Resets per-kernel accounting.
    pub fn on_kernel_boundary(&mut self) {
        debug_assert_eq!(self.live, 0, "kernel boundary with live warps");
        self.arrivals = 0;
        self.batch_sizes.clear();
        self.batch_exits.clear();
        self.completed_batches = 0;
        self.flush_wait = 0;
        self.barrier_wait = 0;
        self.ready_bound = u64::MAX;
        self.policy.on_kernel_boundary();
    }
}

/// CTA barrier bookkeeping.
#[derive(Debug, Default)]
pub struct BarrierState {
    /// Warps currently waiting at the barrier (slots).
    pub waiting_slots: Vec<usize>,
    /// Live warps of the CTA (barrier releases when all arrive).
    pub live_warps: u32,
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// Global SM index.
    pub id: usize,
    /// Owning cluster.
    pub cluster: usize,
    /// L1 data cache (tags).
    pub l1: SectoredCache,
    /// L1 MSHRs: sector address → waiting slots.
    pub l1_mshrs: BTreeMap<u64, Vec<usize>>,
    /// MSHR capacity.
    pub l1_mshr_capacity: usize,
    /// Hardware warp slots.
    pub warps: Vec<Option<WarpCtx>>,
    /// Warp schedulers (slot `s` belongs to scheduler `s % schedulers`).
    pub schedulers: Vec<SchedulerCtx>,
    /// Barrier state per resident CTA.
    pub barriers: BTreeMap<u64, BarrierState>,
    /// Resident thread count (occupancy limit).
    pub resident_threads: usize,
    /// Resident CTA count (occupancy limit).
    pub resident_ctas: usize,
    /// Next runtime CTA key.
    next_cta_key: u64,
    max_threads: usize,
    max_ctas: usize,
    num_schedulers: usize,
}

impl Sm {
    /// Builds an SM with the given scheduling policy in every scheduler.
    pub fn new(id: usize, cfg: &GpuConfig, sched_kind: SchedKind) -> Self {
        let num_schedulers = cfg.num_schedulers_per_sm;
        let width = cfg.warps_per_scheduler();
        Self {
            id,
            cluster: id / cfg.sms_per_cluster,
            l1: SectoredCache::new(cfg.l1_size, cfg.l1_assoc, cfg.line_size, cfg.sector_size),
            l1_mshrs: BTreeMap::new(),
            l1_mshr_capacity: cfg.l1_mshrs,
            warps: (0..cfg.max_warps_per_sm).map(|_| None).collect(),
            schedulers: (0..num_schedulers)
                .map(|_| SchedulerCtx::new(sched_kind, width, cfg.alu_latency))
                .collect(),
            barriers: BTreeMap::new(),
            resident_threads: 0,
            resident_ctas: 0,
            next_cta_key: 0,
            max_threads: cfg.max_threads_per_sm,
            max_ctas: cfg.max_ctas_per_sm,
            num_schedulers,
        }
    }

    /// Whether the SM has room for `cta` (warp slots per scheduler, threads,
    /// CTA count).
    pub fn can_accept(&self, cta: &CtaSpec) -> bool {
        if self.resident_ctas >= self.max_ctas {
            return false;
        }
        if self.resident_threads + cta.num_threads() > self.max_threads {
            return false;
        }
        // Each warp w of the CTA goes to scheduler w % S, so scheduler s
        // receives n / S warps, plus one for the first n % S schedulers.
        // A scheduler's free slots are its width minus its live warps.
        let (n, s) = (cta.warps.len(), self.num_schedulers);
        self.schedulers.iter().enumerate().all(|(sched, sctx)| {
            let need = n / s + usize::from(sched < n % s);
            sctx.width - sctx.live as usize >= need
        })
    }

    /// Places a CTA onto the SM; returns the slots used.
    ///
    /// `unique_base` is the deterministic id of the CTA's first warp;
    /// `metas` holds one precomputed [`WarpMeta`] per warp of the CTA
    /// (see [`imeta::warp_meta`](crate::imeta::warp_meta)).
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit (callers check
    /// [`can_accept`](Self::can_accept) first) or if `metas` does not
    /// cover every warp.
    pub fn add_cta(
        &mut self,
        cta: &CtaSpec,
        unique_base: u64,
        cycle: u64,
        metas: &[Arc<WarpMeta>],
    ) -> Vec<usize> {
        assert_eq!(
            metas.len(),
            cta.warps.len(),
            "CTA {} has {} warps but {} meta tables",
            cta.cta_id,
            cta.warps.len(),
            metas.len()
        );
        assert!(self.can_accept(cta), "CTA does not fit on SM {}", self.id);
        let cta_key = self.next_cta_key;
        self.next_cta_key += 1;
        self.resident_ctas += 1;
        self.resident_threads += cta.num_threads();
        self.barriers.insert(
            cta_key,
            BarrierState {
                waiting_slots: Vec::new(),
                live_warps: cta.warps.len() as u32,
            },
        );
        let mut slots = Vec::with_capacity(cta.warps.len());
        for (w, program) in cta.warps.iter().enumerate() {
            let sched = w % self.num_schedulers;
            let slot = self
                .warps
                .iter()
                .enumerate()
                .position(|(s, ctx)| s % self.num_schedulers == sched && ctx.is_none())
                .expect("can_accept guaranteed a free slot");
            let unique = unique_base + w as u64;
            let (batch, arrival) = self.schedulers[sched].register_arrival();
            self.schedulers[sched].policy.on_warp_arrive(unique);
            self.schedulers[sched].note_ready(cycle);
            self.warps[slot] = Some(WarpCtx {
                unique,
                cta_key,
                sched,
                batch,
                arrival,
                program: Arc::clone(program),
                meta: Arc::clone(&metas[w]),
                pc: 0,
                alu_rem: 0,
                state: WarpState::Ready,
                next_ready: cycle,
                outstanding_loads: 0,
                outstanding_writes: 0,
                lock_occurrences: Vec::new(),
            });
            slots.push(slot);
        }
        slots
    }

    /// Retires the warp in `slot`, updating scheduler, barrier, and
    /// occupancy accounting. Returns the warp's context.
    pub fn retire_warp(&mut self, slot: usize, no_more_arrivals: bool) -> WarpCtx {
        let warp = self.warps[slot].take().expect("slot occupied");
        let sched = &mut self.schedulers[warp.sched];
        sched.policy.on_warp_exit(warp.unique);
        sched.register_exit(warp.batch, no_more_arrivals);
        self.resident_threads -= warp.program.active_lanes;
        let barrier = self
            .barriers
            .get_mut(&warp.cta_key)
            .expect("CTA barrier state exists");
        barrier.live_warps -= 1;
        if barrier.live_warps == 0 {
            self.barriers.remove(&warp.cta_key);
            self.resident_ctas -= 1;
        }
        warp
    }

    /// Number of live warps on the SM.
    pub fn live_warps(&self) -> usize {
        self.schedulers.iter().map(|s| s.live as usize).sum()
    }

    /// Earliest `next_ready` among issuable warps, for fast-forwarding.
    /// Warps blocked on memory/barriers/flushes have no bound (they are
    /// woken by events).
    pub fn earliest_ready(&self) -> Option<u64> {
        self.warps
            .iter()
            .flatten()
            .filter(|w| w.state == WarpState::Ready)
            .map(|w| w.next_ready)
            .min()
    }

    /// Warp schedulers on this SM.
    pub fn num_schedulers(&self) -> usize {
        self.num_schedulers
    }

    /// Recomputes scheduler `sched`'s exact ready bound from current warp
    /// state, excluding warps parked by the batch gate (they are woken by
    /// the gate-opening sites: warp retirement and dispatch completion).
    /// The event engine's incremental maintenance uses this as its oracle:
    /// after a retirement (which may open the gate) the bound is recomputed
    /// exactly; elsewhere it is maintained from per-view `bound_at` values.
    pub fn recompute_ready_bound(&mut self, sched: usize, det_aware: bool, srr_like: bool) {
        let mut bound = u64::MAX;
        let sctx = &self.schedulers[sched];
        let mut slot = sched;
        while slot < self.warps.len() {
            if let Some(w) = &self.warps[slot] {
                if w.state == WarpState::Ready && !w.finished() {
                    let gated_now = det_aware
                        && !sctx.batch_may_issue_atomics(w.batch)
                        && (w.next_is_atomic() || srr_like);
                    if !gated_now {
                        bound = bound.min(w.next_ready);
                    }
                }
            }
            slot += self.num_schedulers;
        }
        self.schedulers[sched].ready_bound = bound;
    }

    /// Folds slot `slot`'s *current* timer bound into its scheduler's
    /// `ready_bound`. The event engine calls this for the warp it just
    /// issued from — the prebuilt view's `bound_at` predates the issue, so
    /// the warp is re-evaluated live (its peers' `bound_at` values are
    /// still valid and are folded directly).
    pub fn note_slot_bound(&mut self, slot: usize, det_aware: bool, srr_like: bool) {
        let Some(w) = &self.warps[slot] else { return };
        if w.state != WarpState::Ready || w.finished() {
            return;
        }
        let (sc, batch, next_is_atomic, t) = (w.sched, w.batch, w.next_is_atomic(), w.next_ready);
        let sctx = &mut self.schedulers[sc];
        let gated_now =
            det_aware && !sctx.batch_may_issue_atomics(batch) && (next_is_atomic || srr_like);
        if !gated_now {
            sctx.note_ready(t);
        }
    }

    /// SM-level ready bound: the minimum of its schedulers' bounds
    /// (`u64::MAX` when no warp is ready). Like the per-scheduler bounds,
    /// a lower bound — never later than the true earliest pickable cycle.
    pub fn ready_bound(&self) -> u64 {
        self.schedulers
            .iter()
            .map(|s| s.ready_bound)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Rebuilds scheduler `sched`'s warp views for `cycle` into `views`
    /// (cleared first, so a caller-owned buffer is reused across visits),
    /// sorted by unique id, applying batch gating (`det_aware`; under SRR —
    /// `srr_like` — a gated batch may not issue anything, elsewhere only
    /// its atomics are held). `views` is left empty when no warp is ready
    /// pre-gating.
    ///
    /// Returns the scheduler's aggregate timer bound: the minimum
    /// `bound_at` over all live warps (`u64::MAX` when every warp waits on
    /// an event or the batch gate). It is exact at build time, so the
    /// event engine can install it directly instead of rescanning the
    /// warps after the visit.
    ///
    /// This is a pure read of SM-local state — no interconnect, lock, or
    /// execution-model inputs — which is what lets the engine prebuild views
    /// ahead of the commit walk. Model issue gating
    /// (`ExecutionModel::can_issue`) is layered on by the commit walk.
    pub fn build_views(
        &self,
        sched: usize,
        cycle: u64,
        det_aware: bool,
        srr_like: bool,
        views: &mut Vec<WarpView>,
    ) -> u64 {
        let sctx = &self.schedulers[sched];
        views.clear();
        let mut any_ready = false;
        let mut agg_bound = u64::MAX;
        let mut slot = sched;
        while slot < self.warps.len() {
            if let Some(w) = &self.warps[slot] {
                debug_assert_eq!(w.sched, sched);
                let next_is_atomic = w.next_is_atomic();
                let timer_ready = w.state == WarpState::Ready && !w.finished();
                // Later batches may not issue atomics; under SRR they may
                // not issue anything. Gated warps have no timer bound —
                // the gate-opening sites wake them.
                let gated_now = det_aware
                    && !sctx.batch_may_issue_atomics(w.batch)
                    && (next_is_atomic || srr_like);
                let bound_at = if timer_ready && !gated_now {
                    w.next_ready
                } else {
                    u64::MAX
                };
                agg_bound = agg_bound.min(bound_at);
                let mut ready = timer_ready && w.next_ready <= cycle;
                let mut batch_gated = false;
                if ready && gated_now {
                    ready = false;
                    batch_gated = true;
                }
                views.push(WarpView {
                    slot,
                    unique: w.unique,
                    arrival: w.arrival,
                    ready,
                    next_is_atomic,
                    at_barrier: w.state == WarpState::WaitBarrier,
                    flush_wait: w.state == WarpState::WaitFlush,
                    batch_gated,
                    bound_at,
                });
                any_ready |= ready;
            }
            slot += self.num_schedulers;
        }
        if any_ready {
            views.sort_unstable_by_key(|v| v.unique);
        } else {
            views.clear();
        }
        agg_bound
    }

    /// Writes one [`SchedCensus`] row per scheduler into `out`.
    ///
    /// Like [`build_views`](Self::build_views) this reads (and, through
    /// `note_atomic_pending`, updates) only SM-local scheduler state, so each
    /// cluster's rows build independently and land at fixed indices.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the scheduler count.
    pub fn census_into(&mut self, det_aware: bool, out: &mut [SchedCensus]) {
        assert!(out.len() >= self.num_schedulers, "census row per scheduler");
        for (s, sched) in self.schedulers.iter().enumerate() {
            out[s] = SchedCensus {
                live: sched.live,
                flush_wait: sched.flush_wait,
                barrier_wait: sched.barrier_wait,
                atomic_stuck: 0,
            };
        }
        if det_aware {
            // Count ready warps whose next atomic is steadily refused
            // (policy token/turn/phase or the batch gate): they cannot
            // change any buffer before a flush, so DAB may seal. First
            // give the policies a chance to account for the pending
            // atomics (GTRR's greedy->round-robin switch), so transient
            // one-cycle refusals are not mistaken for steady ones.
            // The second pass runs only when the first found a pending
            // atomic, which keeps the common nothing-pending census to one
            // scan.
            let pending = |w: &WarpCtx| w.state == WarpState::Ready && w.next_is_atomic();
            let mut any_pending = false;
            for w in self.warps.iter().flatten().filter(|w| pending(w)) {
                self.schedulers[w.sched]
                    .policy
                    .note_atomic_pending(w.unique);
                any_pending = true;
            }
            if any_pending {
                for w in self.warps.iter().flatten().filter(|w| pending(w)) {
                    let sched = &self.schedulers[w.sched];
                    if !sched.batch_may_issue_atomics(w.batch)
                        || sched.policy.blocks_atomic_of(w.unique)
                    {
                        out[w.sched].atomic_stuck += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{AtomicAccess, AtomicOp, Value};

    fn cta(warps: usize, lanes: usize) -> CtaSpec {
        CtaSpec::new(
            0,
            (0..warps)
                .map(|_| {
                    WarpProgram::new(
                        vec![Instr::Red {
                            op: AtomicOp::AddF32,
                            accesses: vec![AtomicAccess::new(0, 0, Value::F32(1.0))],
                        }],
                        lanes,
                    )
                })
                .collect(),
        )
    }

    fn sm() -> Sm {
        Sm::new(0, &GpuConfig::tiny(), SchedKind::Gto)
    }

    fn metas_for(cta: &CtaSpec) -> Vec<Arc<WarpMeta>> {
        cta.warps
            .iter()
            .map(|p| crate::imeta::warp_meta(p, &GpuConfig::tiny()))
            .collect()
    }

    #[test]
    fn cta_admission_and_slots() {
        let mut sm = sm();
        let cta = cta(8, 32);
        assert!(sm.can_accept(&cta));
        let slots = sm.add_cta(&cta, 100, 0, &metas_for(&cta));
        assert_eq!(slots.len(), 8);
        assert_eq!(sm.live_warps(), 8);
        assert_eq!(sm.resident_threads, 256);
        assert_eq!(sm.resident_ctas, 1);
        // Warps spread across 4 schedulers: 2 each.
        for sched in 0..4 {
            assert_eq!(sm.schedulers[sched].live, 2);
        }
    }

    #[test]
    fn thread_occupancy_limit() {
        let mut sm = sm();
        // 2048 threads max: 8 CTAs of 8x32 = 256 threads each.
        for i in 0..8 {
            let c = cta(8, 32);
            assert!(sm.can_accept(&c), "cta {i} should fit");
            sm.add_cta(&c, i * 8, 0, &metas_for(&c));
        }
        assert!(!sm.can_accept(&cta(8, 32)));
    }

    #[test]
    fn warp_slot_limit_per_scheduler() {
        let mut sm = sm();
        // 64 slots, 16 per scheduler. A 64-warp, 1-lane-per-warp load fills
        // every slot.
        let big = cta(64, 1);
        assert!(sm.can_accept(&big));
        sm.add_cta(&big, 0, 0, &metas_for(&big));
        assert!(!sm.can_accept(&cta(1, 1)));
    }

    #[test]
    fn retire_restores_capacity() {
        let mut sm = sm();
        let c = cta(8, 32);
        let slots = sm.add_cta(&c, 0, 0, &metas_for(&c));
        for slot in slots {
            sm.retire_warp(slot, false);
        }
        assert_eq!(sm.live_warps(), 0);
        assert_eq!(sm.resident_ctas, 0);
        assert_eq!(sm.resident_threads, 0);
        assert!(sm.can_accept(&cta(8, 32)));
    }

    /// The slot-scan admission check `can_accept` replaced: count free
    /// slots of each scheduler against the CTA's warps per scheduler.
    fn can_accept_by_slot_scan(sm: &Sm, cta: &CtaSpec) -> bool {
        let ns = sm.num_schedulers();
        if sm.resident_ctas >= sm.max_ctas
            || sm.resident_threads + cta.num_threads() > sm.max_threads
        {
            return false;
        }
        (0..ns).all(|sched| {
            let need = (0..cta.warps.len()).filter(|w| w % ns == sched).count();
            let free = (sched..sm.warps.len())
                .step_by(ns)
                .filter(|&slot| sm.warps[slot].is_none())
                .count();
            free >= need
        })
    }

    #[test]
    fn can_accept_matches_slot_scan_on_random_placements() {
        // Deterministic LCG, as in the ready-bound test below.
        let mut state = 0x1319_8a2e_0370_7344u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut sm = sm();
        let mut unique = 0;
        for step in 0..2000 {
            // Warp counts that do and do not divide evenly over the four
            // schedulers, with few lanes so the warp slots fill before the
            // thread limit does.
            let c = cta(1 + rng() as usize % 23, 1 + rng() as usize % 8);
            let fits = sm.can_accept(&c);
            assert_eq!(
                fits,
                can_accept_by_slot_scan(&sm, &c),
                "step {step}: can_accept disagrees with the slot scan for a {}-warp CTA",
                c.warps.len()
            );
            if fits && rng() % 3 != 0 {
                sm.add_cta(&c, unique, 0, &metas_for(&c));
                unique += c.warps.len() as u64;
            } else {
                // Retire a random batch of live warps.
                for _ in 0..rng() % 12 {
                    let slot = rng() as usize % sm.warps.len();
                    if sm.warps[slot].is_some() {
                        sm.retire_warp(slot, false);
                    }
                }
            }
            assert_eq!(
                sm.live_warps(),
                sm.warps.iter().filter(|w| w.is_some()).count(),
                "step {step}: live_warps disagrees with the occupied slots"
            );
        }
    }

    #[test]
    fn batch_assignment_by_arrival() {
        let mut sched = SchedulerCtx::new(SchedKind::Gwat, 2, 4);
        assert_eq!(sched.register_arrival(), (0, 0));
        assert_eq!(sched.register_arrival(), (0, 1));
        assert_eq!(sched.register_arrival(), (1, 2));
        assert!(sched.batch_may_issue_atomics(0));
        assert!(!sched.batch_may_issue_atomics(1));
        // Batch 0 fully exits → batch 1 unblocked.
        sched.register_exit(0, false);
        assert!(!sched.batch_may_issue_atomics(1));
        sched.register_exit(0, false);
        assert!(sched.batch_may_issue_atomics(1));
    }

    #[test]
    fn partial_batch_completes_only_after_dispatch_done() {
        let mut sched = SchedulerCtx::new(SchedKind::Gwat, 4, 4);
        let (b, _) = sched.register_arrival();
        assert_eq!(b, 0);
        sched.register_exit(0, false);
        // One of a potential four exited; more may arrive → batch 0 open.
        assert!(!sched.batch_may_issue_atomics(1));
        sched.advance_completed(true);
        // Dispatch finished → the partial batch can complete.
        assert!(sched.batch_may_issue_atomics(1));
    }

    #[test]
    fn warp_ctx_helpers() {
        let mut sm = sm();
        let c = cta(1, 32);
        let slots = sm.add_cta(&c, 7, 0, &metas_for(&c));
        let warp = sm.warps[slots[0]].as_mut().expect("warp resident");
        assert_eq!(warp.unique, 7);
        assert!(warp.next_is_atomic());
        assert!(!warp.finished());
        warp.pc = 1;
        assert!(warp.finished());
        assert_eq!(warp.next_lock_occurrence(0x10), 0);
        assert_eq!(warp.next_lock_occurrence(0x10), 1);
        assert_eq!(warp.next_lock_occurrence(0x20), 0);
    }

    #[test]
    fn build_views_sorted_and_ready_gated() {
        let mut sm = sm();
        let c = cta(8, 32);
        sm.add_cta(&c, 0, 0, &metas_for(&c));
        let mut views = Vec::new();
        let bound = sm.build_views(0, 0, false, false, &mut views);
        assert_eq!(views.len(), 2, "scheduler 0 owns 2 of the 8 warps");
        assert!(views.windows(2).all(|w| w[0].unique < w[1].unique));
        assert!(views.iter().all(|v| v.ready));
        assert_eq!(bound, 0, "aggregate bound tracks the earliest next_ready");
        assert!(views.iter().all(|v| v.bound_at == 0));
        // Park every warp of scheduler 0: no pre-gating ready warp → empty,
        // and the aggregate bound reports "event-woken only".
        let slots: Vec<usize> = views.iter().map(|v| v.slot).collect();
        for slot in slots {
            sm.warps[slot].as_mut().expect("resident").state = WarpState::WaitMem;
        }
        // The same buffer is refilled: stale views from the last build
        // must not survive.
        let bound = sm.build_views(0, 0, false, false, &mut views);
        assert!(views.is_empty());
        assert_eq!(bound, u64::MAX);
    }

    #[test]
    fn incremental_ready_bound_matches_scan_on_random_transitions() {
        // Deterministic splitmix-style generator: no time- or
        // platform-dependent seeding, so the sequence is identical on
        // every run and host.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut sm = sm();
        let c = cta(8, 32);
        sm.add_cta(&c, 0, 0, &metas_for(&c));
        let ns = sm.num_schedulers();
        let mut views = Vec::new();
        for step in 0..400u64 {
            let cycle = step;
            // One random warp transition, mirroring an engine site: a park
            // (no note — stale-low is allowed), a wake (`note_ready`, as
            // the six wake sites do), or an issue-side `next_ready` bump
            // followed by the engine's post-issue `note_slot_bound`.
            let slot = rng() as usize % sm.warps.len();
            if let Some(w) = sm.warps[slot].as_mut() {
                match rng() % 3 {
                    0 => w.state = WarpState::WaitMem,
                    1 => {
                        w.state = WarpState::Ready;
                        w.next_ready = cycle + rng() % 5;
                        let (sched, t) = (w.sched, w.next_ready);
                        sm.schedulers[sched].note_ready(t);
                    }
                    _ => {
                        if w.state == WarpState::Ready {
                            w.next_ready = cycle + 1 + rng() % 4;
                            sm.note_slot_bound(slot, false, false);
                        }
                    }
                }
            }
            for s in 0..ns {
                // Between visits the incremental bound is a lower bound...
                let incremental = sm.schedulers[s].ready_bound;
                let scanned = sm.build_views(s, cycle, false, false, &mut views);
                assert!(
                    incremental <= scanned,
                    "step {step}: incremental bound {incremental} exceeds                      the scanned bound {scanned} for scheduler {s}"
                );
                // ...and the per-visit install (what the commit walk does
                // with `build_views`' aggregate) is exactly the full scan.
                sm.schedulers[s].ready_bound = scanned;
                sm.recompute_ready_bound(s, false, false);
                assert_eq!(
                    sm.schedulers[s].ready_bound, scanned,
                    "step {step}: installed aggregate diverges from the                      recompute oracle for scheduler {s}"
                );
            }
        }
    }

    #[test]
    fn census_counts_live_per_scheduler() {
        let mut sm = sm();
        let c = cta(8, 32);
        sm.add_cta(&c, 0, 0, &metas_for(&c));
        let mut rows = vec![SchedCensus::default(); sm.num_schedulers()];
        sm.census_into(false, &mut rows);
        assert!(rows.iter().all(|r| r.live == 2));
        assert!(rows.iter().all(|r| r.atomic_stuck == 0));
    }

    #[test]
    fn ready_bound_is_a_lower_bound_until_recompute() {
        let mut sm = sm();
        let ns = sm.num_schedulers();
        let c = cta(8, 32);
        let slots = sm.add_cta(&c, 0, 5, &metas_for(&c));
        // Spawn at cycle 5 lowers every scheduler's bound to 5.
        assert_eq!(sm.ready_bound(), 5);
        assert_eq!(sm.schedulers[0].ready_bound, 5);
        // Park scheduler 0's warps; the cached bound is stale-low (allowed)
        // until an explicit recompute tightens it.
        for &slot in slots.iter().filter(|&&s| s % ns == 0) {
            sm.warps[slot].as_mut().expect("resident").state = WarpState::WaitMem;
        }
        assert_eq!(sm.schedulers[0].ready_bound, 5, "stale-low is allowed");
        sm.recompute_ready_bound(0, false, false);
        assert_eq!(sm.schedulers[0].ready_bound, u64::MAX);
        // A wake lowers it again; raising via note_ready is impossible.
        sm.schedulers[0].note_ready(9);
        assert_eq!(sm.schedulers[0].ready_bound, 9);
        sm.schedulers[0].note_ready(100);
        assert_eq!(sm.schedulers[0].ready_bound, 9);
    }

    #[test]
    fn earliest_ready_tracks_minimum() {
        let mut sm = sm();
        let c = cta(2, 32);
        let slots = sm.add_cta(&c, 0, 5, &metas_for(&c));
        assert_eq!(sm.earliest_ready(), Some(5));
        sm.warps[slots[0]].as_mut().expect("resident").next_ready = 20;
        sm.warps[slots[1]].as_mut().expect("resident").state = WarpState::WaitMem;
        assert_eq!(sm.earliest_ready(), Some(20));
    }
}
