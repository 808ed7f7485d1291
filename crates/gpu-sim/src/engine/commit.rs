//! The commit half of the issue phase: the fixed `(SM, scheduler)` walk.
//!
//! Each cycle, [`GpuSim::commit_walk`] visits every SM in global index
//! order and every scheduler in index order, consuming the warp views the
//! prepare phase built, applying model gating, picking, and issuing one
//! instruction per scheduler. The walk is a set of `GpuSim` methods: it
//! reads the cycle, the geometry and the issue-gate snapshot straight off
//! the engine, books its statistics and activity counters into the
//! engine's own totals, and injects each request packet into the
//! interconnect the moment it issues.
//!
//! Admission is per cluster: a cluster may send `f` more flits while
//! [`Interconnect::request_injection_budget`] for it is at least `f`, and
//! [`Interconnect::inject_request`] debits exactly the packet's flits from
//! that budget. Nothing else touches the interconnect during the walk
//! (`Interconnect::tick` runs before the issue phase; model hooks and the
//! lock manager have no interconnect access), so each admission decision
//! and each cluster's packet order is a function of the walk order alone.
//!
//! The walk draws no non-determinism: it holds no [`NdetSource`] and no
//! [`ScheduleOracle`], and every draw happens in the engine's own phases.
//! `dab-explore` numbers its decisions in the engine's fixed visit order
//! and depends on this.
//!
//! [`Interconnect::request_injection_budget`]: crate::mem::icnt::Interconnect::request_injection_budget
//! [`Interconnect::inject_request`]: crate::mem::icnt::Interconnect::inject_request
//! [`NdetSource`]: crate::ndet::NdetSource
//! [`ScheduleOracle`]: crate::oracle::ScheduleOracle

use std::sync::Arc;

use super::{pkt_kind, GpuSim};
use crate::exec::{
    AtomicIssue, AtomicRoute, BarrierRelease, FenceAction, SchedId, StoreRoute, WarpId,
};
use crate::imeta::InstrMeta;
use crate::isa::{AtomicAccess, AtomicOp, Instr};
use crate::mem::cache::Probe;
use crate::mem::packet::{AtomKind, Packet, Payload, WarpRef};
use crate::mem::partition_of;
use crate::sched::WarpView;
use crate::sm::WarpState;

/// Flattens an instruction to its trace event class.
fn instr_kind(instr: &Instr) -> obs::InstrKind {
    match instr {
        Instr::Alu { .. } => obs::InstrKind::Alu,
        Instr::Load { .. } => obs::InstrKind::Load,
        Instr::Store { .. } => obs::InstrKind::Store,
        Instr::Red { .. } => obs::InstrKind::Red,
        Instr::Atom { .. } => obs::InstrKind::Atom,
        Instr::Bar => obs::InstrKind::Bar,
        Instr::Fence => obs::InstrKind::Fence,
        Instr::LockedSection { .. } => obs::InstrKind::Lock,
    }
}

impl GpuSim {
    /// Whether SM `sm_idx`'s cluster can inject `flits` more request flits
    /// this cycle: the live interconnect budget, which every packet sent
    /// earlier in the walk has already been debited from.
    #[inline]
    fn can_send(&self, sm_idx: usize, flits: u32) -> bool {
        flits
            <= self
                .icnt
                .request_injection_budget(sm_idx / self.cfg.sms_per_cluster)
    }

    /// Injects an outbound request packet at SM `sm_idx`'s cluster.
    fn send(&mut self, sm_idx: usize, pkt: Packet) {
        let cluster = sm_idx / self.cfg.sms_per_cluster;
        if self.trace_full() {
            self.trace_event(obs::Event::IcntInject {
                cycle: self.cycle,
                cluster: cluster as u32,
                dest: pkt.dest as u32,
                kind: pkt_kind(&pkt.payload),
            });
        }
        self.icnt.inject_request(cluster, pkt);
    }

    /// The commit walk: every scheduler of every SM, in global `(SM,
    /// scheduler)` index order, consumes its prebuilt views, applies model
    /// gating, picks, and issues.
    ///
    /// Under the event engine the walk is an active-set traversal: SMs and
    /// schedulers whose cached `ready_bound` lies in the future are skipped
    /// in place. Skipping is equivalent to the dense visit because
    /// `ready_bound > cycle` guarantees `build_views` would return empty
    /// (the bound is never stale-high), and an empty view set is exactly
    /// the dense `continue`: no gating, no pick, no issue. Schedulers the
    /// model's issue gate does not admit are skipped the same way, with
    /// their bound left as it is: every `can_issue` answer there would be
    /// `false`, and a stale-low bound only costs a visit once the gate
    /// reopens. These are the parked checks of
    /// [`prepare_views`](GpuSim::prepare_views): mid-commit wakes only ever
    /// lower a bound to `cycle + 1` (still parked), so prepare and commit
    /// agree on which schedulers are active.
    ///
    /// Visited schedulers maintain their bound *incrementally* instead of
    /// rescanning warps: the bound is re-armed to `u64::MAX` before the
    /// pick (so mid-issue wakes land on a clean slate), then the prebuilt
    /// per-view timer bounds of non-picked warps are folded back in and
    /// the picked warp is re-evaluated live (`Sm::note_slot_bound`). Dirty
    /// SMs (a barrier release mutated warps mid-commit) rebuild views —
    /// and with them exact bounds — on the spot, so no wake is ever lost.
    pub(super) fn commit_walk(&mut self) {
        let cycle = self.cycle;
        let event = self.event();
        let gate = self.gate;
        let (det_aware, srr_like) = (self.det_aware(), self.srr_like());
        let num_sched = self.cfg.num_schedulers_per_sm;
        for sm_idx in 0..self.sms.len() {
            if event && (self.sms[sm_idx].ready_bound() > cycle || !gate.admits_sm(sm_idx)) {
                continue;
            }
            self.activity.sms_ticked += 1;
            for sched in 0..num_sched {
                if self.sms[sm_idx].schedulers[sched].live == 0 {
                    // A dead scheduler can be left holding a stale-low bound:
                    // bounds only ever fall between visits, and a scheduler
                    // with no live warps is never visited again to install an
                    // exact one. Clear it, or it pins the event wheel (and
                    // this SM's walk) to every remaining cycle; a later CTA
                    // placement re-lowers it on arrival.
                    if event {
                        self.sms[sm_idx].schedulers[sched].ready_bound = u64::MAX;
                    }
                    continue;
                }
                if event
                    && (self.sms[sm_idx].schedulers[sched].ready_bound > cycle
                        || !gate.admits(sm_idx, sched))
                {
                    continue;
                }
                // Borrow the row's view buffer for the visit and hand it
                // back afterwards, so its allocation is reused every cycle.
                let row = sm_idx * num_sched + sched;
                let mut views = std::mem::take(&mut self.views[row]);
                let agg_bound = if self.dirty[sm_idx] {
                    self.activity.scheduler_scans += 1;
                    self.sms[sm_idx].build_views(sched, cycle, det_aware, srr_like, &mut views)
                } else {
                    self.view_bounds[row]
                };
                if event {
                    // Re-arm before the pick: wakes triggered by this
                    // visit (barrier releases, retirements) lower the
                    // bound from MAX via `note_ready`/recompute and are
                    // preserved by the min-folds below.
                    self.sms[sm_idx].schedulers[sched].ready_bound = u64::MAX;
                }
                let picked = if views.is_empty() {
                    None
                } else {
                    self.apply_model_gating(sm_idx, sched, &mut views);
                    self.pick_and_issue(sm_idx, sched, &views)
                };
                if event {
                    let sm = &mut self.sms[sm_idx];
                    for v in &views {
                        if Some(v.slot) != picked {
                            sm.schedulers[sched].note_ready(v.bound_at);
                        }
                    }
                    if views.is_empty() {
                        sm.schedulers[sched].note_ready(agg_bound);
                    }
                    if let Some(slot) = picked {
                        sm.note_slot_bound(slot, det_aware, srr_like);
                    }
                }
                self.views[row] = views;
            }
        }
    }

    /// Model gating (GPUDet quanta / serial mode) applied to ready views.
    ///
    /// The dense walk visits every scheduler, so debug builds check the
    /// [`issue_gate`](crate::exec::ExecutionModel::issue_gate) contract here: a gate
    /// that shuts out a scheduler `can_issue` would admit makes the event
    /// engine drop that issue.
    fn apply_model_gating(&mut self, sm_idx: usize, sched: usize, views: &mut [WarpView]) {
        let cycle = self.cycle;
        for v in views.iter_mut().filter(|v| v.ready) {
            let warp_id = WarpId {
                sched: SchedId { sm: sm_idx, sched },
                slot: v.slot,
                unique: v.unique,
            };
            v.ready = self.model.can_issue(warp_id, v.next_is_atomic, cycle);
            debug_assert!(
                !v.ready || self.gate.admits(sm_idx, sched),
                "can_issue admitted warp {} on scheduler {sm_idx}:{sched} at cycle {cycle}, \
                 which the model's issue gate {:?} shuts out",
                v.unique,
                self.gate,
            );
        }
    }

    /// Runs the policy pick and issues the chosen warp. Returns the picked
    /// slot (whether or not the issue succeeded) so the event engine can
    /// exclude its stale prebuilt bound from the incremental fold.
    fn pick_and_issue(&mut self, sm_idx: usize, sched: usize, views: &[WarpView]) -> Option<usize> {
        let cycle = self.cycle;
        let picked = self.sms[sm_idx].schedulers[sched].policy.pick(views, cycle);
        if let Some(slot) = picked {
            debug_assert!(
                views.iter().any(|v| v.slot == slot && v.ready),
                "scheduler picked a non-ready warp"
            );
            self.issue_one(sm_idx, sched, slot);
        }
        picked
    }

    fn issue_one(&mut self, sm_idx: usize, sched: usize, slot: usize) {
        let cycle = self.cycle;
        let (program, meta, pc, unique, lanes) = {
            let w = self.sms[sm_idx].warps[slot].as_ref().expect("picked warp");
            (
                Arc::clone(&w.program),
                Arc::clone(&w.meta),
                w.pc,
                w.unique,
                w.program.active_lanes,
            )
        };
        let instr = &program.instrs[pc];
        let warp_id = WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        };
        let warp_ref = WarpRef { sm: sm_idx, slot };

        let mut issued = true;
        let mut thread_instrs = instr.thread_instr_count(lanes);
        match instr {
            Instr::Alu { cycles, count } => {
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                if w.alu_rem == 0 {
                    w.alu_rem = (*count).max(1);
                }
                w.alu_rem -= 1;
                thread_instrs = lanes as u64;
                if w.alu_rem == 0 {
                    w.pc += 1;
                    // Latency tail before the (dependent) next instruction.
                    w.next_ready = cycle + (*cycles).max(1) as u64;
                } else {
                    // Back-to-back issue within the burst.
                    w.next_ready = cycle + 1;
                }
            }
            Instr::Load { .. } => {
                let InstrMeta::Sectors(sectors) = meta.at(pc) else {
                    unreachable!("load without sector metadata")
                };
                issued = self.issue_load(sm_idx, slot, sectors);
            }
            Instr::Store { .. } => {
                let InstrMeta::Sectors(sectors) = meta.at(pc) else {
                    unreachable!("store without sector metadata")
                };
                issued = self.issue_store(warp_id, sectors);
            }
            Instr::Red { op, accesses } => {
                issued = self.issue_atomic(warp_id, *op, accesses, AtomKind::Red, meta.at(pc));
            }
            Instr::Atom { op, accesses } => {
                issued = self.issue_atomic(warp_id, *op, accesses, AtomKind::Atom, meta.at(pc));
            }
            Instr::Bar => {
                self.issue_barrier(sm_idx, slot);
            }
            Instr::Fence => {
                self.issue_fence(warp_id);
            }
            Instr::LockedSection {
                kind,
                lock_addr,
                op,
                accesses,
                critical_cycles,
            } => {
                let occurrence = {
                    let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                    w.next_lock_occurrence(*lock_addr)
                };
                self.locks.acquire(
                    warp_ref,
                    unique,
                    occurrence,
                    *kind,
                    *lock_addr,
                    accesses,
                    *critical_cycles,
                    *op,
                );
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                w.state = WarpState::WaitLock;
                if self.trace_full() {
                    self.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Lock,
                    });
                }
            }
        }

        if issued {
            self.progress();
            if self.trace_full() {
                self.trace_event(obs::Event::Issue {
                    cycle,
                    sm: sm_idx as u32,
                    sched: sched as u32,
                    slot: slot as u32,
                    unique,
                    pc: pc as u32,
                    kind: instr_kind(instr),
                });
            }
            self.stats.warp_instrs += 1;
            self.stats.thread_instrs += thread_instrs;
            self.stats.atomics += instr.atomic_count();
            let was_atomic = instr.is_atomic();
            self.sms[sm_idx].schedulers[sched]
                .policy
                .on_issue(unique, was_atomic, cycle);
            self.model.on_issue(warp_id, was_atomic, cycle);
            self.try_retire(sm_idx, slot);
        }
    }

    /// Issues a load: probes L1 for each precomputed sector, then requests
    /// the misses. A load refused for MSHR or interconnect space probes
    /// again on its retry, so every attempt updates the L1's LRU state and
    /// access counters.
    fn issue_load(&mut self, sm_idx: usize, slot: usize, sectors: &[u64]) -> bool {
        // The misses go into the engine's reused sector buffer.
        let mut missing = std::mem::take(&mut self.missing_sectors);
        missing.clear();
        let l1 = &mut self.sms[sm_idx].l1;
        for &s in sectors {
            self.stats.l1_accesses += 1;
            match l1.probe(s) {
                Probe::Hit => {}
                Probe::SectorMiss | Probe::LineMiss => {
                    self.stats.l1_misses += 1;
                    missing.push(s);
                }
            }
        }
        let issued = self.request_misses(sm_idx, slot, &missing);
        self.missing_sectors = missing;
        issued
    }

    /// The part of [`issue_load`](Self::issue_load) after the L1 probe:
    /// completes an all-hit load, or reserves MSHRs and sends a request
    /// for every sector no MSHR tracks yet.
    fn request_misses(&mut self, sm_idx: usize, slot: usize, missing: &[u64]) -> bool {
        let cycle = self.cycle;
        if missing.is_empty() {
            let l1_hit_latency = self.cfg.l1_hit_latency as u64;
            let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
            w.pc += 1;
            w.next_ready = cycle + l1_hit_latency;
            return true;
        }
        // Structural checks: MSHR space for new sectors, interconnect room.
        let sm = &self.sms[sm_idx];
        let new_sectors = missing
            .iter()
            .filter(|s| !sm.l1_mshrs.contains_key(s))
            .count();
        if sm.l1_mshrs.len() + new_sectors > sm.l1_mshr_capacity {
            self.stats.bump("det.stall.l1_mshr", 1);
            return false;
        }
        let flits_needed = new_sectors as u32;
        if !self.can_send(sm_idx, flits_needed) {
            self.stats.icnt_stall_cycles += 1;
            return false;
        }
        let warp_ref = WarpRef { sm: sm_idx, slot };
        for &s in missing {
            let is_new = {
                let sm = &mut self.sms[sm_idx];
                let is_new = !sm.l1_mshrs.contains_key(&s);
                sm.l1_mshrs.entry(s).or_default().push(slot);
                is_new
            };
            if is_new {
                let pkt = Packet::new(
                    partition_of(s, self.cfg.num_mem_partitions),
                    Payload::LoadReq {
                        sector_addr: s,
                        warp: warp_ref,
                    },
                    self.cfg.icnt_flit_size,
                );
                self.stats.mem_transactions += 1;
                self.send(sm_idx, pkt);
            }
        }
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        w.outstanding_loads += missing.len() as u32;
        w.pc += 1;
        w.state = WarpState::WaitMem;
        if self.trace_full() {
            self.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Mem,
            });
        }
        true
    }

    fn issue_store(&mut self, warp_id: WarpId, sectors: &[u64]) -> bool {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        if self.model.on_store(warp_id, sectors.len(), cycle) == StoreRoute::Buffered {
            // Absorbed by a model-side store buffer: no traffic now.
            let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
            w.pc += 1;
            w.next_ready = cycle + 1;
            return true;
        }
        if !self.can_send(sm_idx, 2 * sectors.len() as u32) {
            self.stats.icnt_stall_cycles += 1;
            return false;
        }
        // Store *data* is not modeled: the timing model only needs sector
        // addresses, and reduction outputs are written by atomics.
        let warp_ref = WarpRef { sm: sm_idx, slot };
        for &s in sectors {
            // Write-through, write-evict at the L1.
            self.sms[sm_idx].l1.evict_sector(s);
            let pkt = Packet::new(
                partition_of(s, self.cfg.num_mem_partitions),
                Payload::StoreReq {
                    sector_addr: s,
                    warp: warp_ref,
                },
                self.cfg.icnt_flit_size,
            );
            self.stats.mem_transactions += 1;
            self.send(sm_idx, pkt);
        }
        let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
        w.outstanding_writes += sectors.len() as u32;
        w.pc += 1;
        w.next_ready = cycle + 1;
        true
    }

    fn issue_atomic(
        &mut self,
        warp_id: WarpId,
        op: AtomicOp,
        accesses: &[AtomicAccess],
        kind: AtomKind,
        meta: &InstrMeta,
    ) -> bool {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        let route = self.model.on_atomic(
            AtomicIssue {
                warp: warp_id,
                op,
                accesses,
                kind,
            },
            cycle,
        );
        match route {
            AtomicRoute::Buffered { cycles } => {
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                w.next_ready = cycle + cycles.max(1) as u64;
                true
            }
            AtomicRoute::StallFlush => {
                self.set_flush_wait(sm_idx, slot);
                self.stats.bump("det.stall.atomic_buffer_full", 1);
                false
            }
            AtomicRoute::ToMemory => {
                // Fast-fail when the injection queue is jammed, before
                // touching the precomputed groups (retried every cycle).
                if !self.can_send(sm_idx, 1) {
                    self.stats.icnt_stall_cycles += 1;
                    return false;
                }
                // Per-sector coalescing groups and the flit total are
                // precomputed in the shared [`WarpMeta`] table.
                let InstrMeta::Atomic {
                    groups,
                    total_flits,
                } = meta
                else {
                    unreachable!("atomic without coalescing metadata")
                };
                if !self.can_send(sm_idx, *total_flits) {
                    self.stats.icnt_stall_cycles += 1;
                    return false;
                }
                let warp_ref = WarpRef { sm: sm_idx, slot };
                let unique = self.sms[sm_idx].warps[slot]
                    .as_ref()
                    .expect("picked warp")
                    .unique;
                let n_groups = groups.len() as u32;
                for g in groups.iter() {
                    let pkt = Packet::new(
                        g.dest,
                        Payload::AtomicReq {
                            ops: g.ops.to_vec(),
                            warp: warp_ref,
                            kind,
                            unique,
                        },
                        self.cfg.icnt_flit_size,
                    );
                    self.stats.mem_transactions += 1;
                    self.send(sm_idx, pkt);
                }
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.outstanding_writes += n_groups;
                w.pc += 1;
                match kind {
                    AtomKind::Red => w.next_ready = cycle + 1,
                    AtomKind::Atom => w.state = WarpState::WaitAtom,
                }
                if kind == AtomKind::Atom && self.trace_full() {
                    self.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Atom,
                    });
                }
                true
            }
        }
    }

    fn issue_barrier(&mut self, sm_idx: usize, slot: usize) {
        let cycle = self.cycle;
        let (cta_key, warp_id) = {
            let sm = &mut self.sms[sm_idx];
            let w = sm.warps[slot].as_mut().expect("picked warp");
            w.pc += 1;
            w.state = WarpState::WaitBarrier;
            let (cta_key, sched, unique) = (w.cta_key, w.sched, w.unique);
            sm.schedulers[sched].barrier_wait += 1;
            (
                cta_key,
                WarpId {
                    sched: SchedId { sm: sm_idx, sched },
                    slot,
                    unique,
                },
            )
        };
        if self.trace_full() {
            self.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Barrier,
            });
        }
        self.model.on_barrier_wait(warp_id, cycle);
        {
            let sm = &mut self.sms[sm_idx];
            // The policy consumes the warp's token/turn so atomic grants
            // never deadlock behind the barrier.
            sm.schedulers[warp_id.sched.sched]
                .policy
                .on_barrier_arrival(warp_id.unique);
            let barrier = sm.barriers.get_mut(&cta_key).expect("barrier state");
            barrier.waiting_slots.push(slot);
        }
        self.try_release_barrier(sm_idx, cta_key);
    }

    /// Releases a CTA barrier once every *live* warp of the CTA waits at it
    /// (warps that exited without reaching the barrier no longer count, as
    /// with CUDA's exited-threads semantics).
    fn try_release_barrier(&mut self, sm_idx: usize, cta_key: u64) {
        let cycle = self.cycle;
        let waiting = {
            let sm = &mut self.sms[sm_idx];
            let Some(barrier) = sm.barriers.get_mut(&cta_key) else {
                return;
            };
            if barrier.waiting_slots.is_empty()
                || (barrier.waiting_slots.len() as u32) < barrier.live_warps
            {
                return;
            }
            std::mem::take(&mut barrier.waiting_slots)
        };
        // An actual release mutates warp state across this SM's schedulers;
        // views prebuilt for it this cycle are now stale. Barriers are
        // SM-local, so only this SM's views need a rebuild.
        self.dirty[sm_idx] = true;
        let waiting_ids: Vec<WarpId> = waiting
            .iter()
            .map(|&s| {
                let w = self.sms[sm_idx].warps[s].as_ref().expect("at barrier");
                WarpId {
                    sched: SchedId {
                        sm: sm_idx,
                        sched: w.sched,
                    },
                    slot: s,
                    unique: w.unique,
                }
            })
            .collect();
        let release = self.model.on_barrier_release(sm_idx, &waiting_ids, cycle);
        for id in &waiting_ids {
            self.sms[sm_idx].schedulers[id.sched.sched].barrier_wait -= 1;
        }
        match release {
            BarrierRelease::Immediate => {
                for s in waiting {
                    {
                        let sm = &mut self.sms[sm_idx];
                        let w = sm.warps[s].as_mut().expect("at barrier");
                        w.state = WarpState::Ready;
                        w.next_ready = cycle + 1;
                        let (sched, unique) = (w.sched, w.unique);
                        sm.schedulers[sched].note_ready(cycle + 1);
                        sm.schedulers[sched].policy.on_barrier_released(unique);
                    }
                    self.activity.wakeup_events += 1;
                    if self.trace_full() {
                        self.trace_event(obs::Event::Wake {
                            cycle,
                            sm: sm_idx as u32,
                            slot: s as u32,
                            site: obs::WakeSite::Barrier,
                        });
                    }
                    // The barrier may have been the warp's last instruction.
                    self.try_retire(sm_idx, s);
                }
            }
            BarrierRelease::WaitFlush => {
                // The warps stay parked in their schedulers until the flush
                // wake (the epoch boundary), which keeps un-parking — and
                // therefore the token/turn grant order — deterministic.
                for s in waiting {
                    self.set_flush_wait(sm_idx, s);
                }
            }
        }
    }

    fn issue_fence(&mut self, warp_id: WarpId) {
        let cycle = self.cycle;
        let sm_idx = warp_id.sched.sm;
        let slot = warp_id.slot;
        match self.model.on_fence(warp_id, cycle) {
            FenceAction::DrainWarp => {
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                let drains = w.outstanding_writes > 0;
                if drains {
                    w.state = WarpState::WaitDrain;
                } else {
                    w.next_ready = cycle + 1;
                }
                if drains && self.trace_full() {
                    self.trace_event(obs::Event::Sleep {
                        cycle,
                        sm: sm_idx as u32,
                        slot: slot as u32,
                        reason: obs::SleepReason::Drain,
                    });
                }
            }
            FenceAction::WaitFlush => {
                let w = self.sms[sm_idx].warps[slot].as_mut().expect("picked warp");
                w.pc += 1;
                self.set_flush_wait(sm_idx, slot);
            }
        }
    }

    fn set_flush_wait(&mut self, sm_idx: usize, slot: usize) {
        let cycle = self.cycle;
        let sm = &mut self.sms[sm_idx];
        let w = sm.warps[slot].as_mut().expect("warp resident");
        let mut parked = false;
        if w.state != WarpState::WaitFlush {
            w.state = WarpState::WaitFlush;
            sm.schedulers[w.sched].flush_wait += 1;
            parked = true;
        }
        if parked && self.trace_full() {
            self.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Flush,
            });
        }
    }

    pub(super) fn wake_flush_wait(&mut self, sm_idx: usize, slot: usize) {
        let cycle = self.cycle;
        let sm = &mut self.sms[sm_idx];
        let mut woke = false;
        if let Some(w) = sm.warps[slot].as_mut() {
            if w.state == WarpState::WaitFlush {
                w.state = WarpState::Ready;
                w.next_ready = cycle + 1;
                let (sched, unique) = (w.sched, w.unique);
                sm.schedulers[sched].flush_wait -= 1;
                sm.schedulers[sched].note_ready(cycle + 1);
                // Un-park barrier waiters at the epoch boundary (no-op for
                // warps that were flush-blocked for other reasons).
                sm.schedulers[sched].policy.on_barrier_released(unique);
                woke = true;
            }
        }
        if woke {
            self.activity.wakeup_events += 1;
            if self.trace_full() {
                self.trace_event(obs::Event::Wake {
                    cycle,
                    sm: sm_idx as u32,
                    slot: slot as u32,
                    site: obs::WakeSite::Flush,
                });
            }
        }
        self.try_retire(sm_idx, slot);
    }

    /// Retires the warp if it has finished its program and drained all
    /// outstanding transactions.
    pub(super) fn try_retire(&mut self, sm_idx: usize, slot: usize) {
        let cycle = self.cycle;
        let mut parked_to_drain = false;
        let retire = {
            match self.sms[sm_idx].warps[slot].as_mut() {
                Some(w) if w.finished() => {
                    if w.outstanding_loads == 0 && w.outstanding_writes == 0 {
                        // Only a warp that is not waiting on anything may
                        // retire; a warp whose last instruction parked it
                        // (barrier, flush, lock) retires after its wake.
                        w.state == WarpState::Ready
                    } else {
                        if w.state == WarpState::Ready {
                            w.state = WarpState::WaitDrain;
                            parked_to_drain = true;
                        }
                        false
                    }
                }
                _ => false,
            }
        };
        if parked_to_drain && self.trace_full() {
            self.trace_event(obs::Event::Sleep {
                cycle,
                sm: sm_idx as u32,
                slot: slot as u32,
                reason: obs::SleepReason::Drain,
            });
        }
        if !retire {
            return;
        }
        let (unique, sched) = {
            let w = self.sms[sm_idx].warps[slot]
                .as_ref()
                .expect("finished warp");
            (w.unique, w.sched)
        };
        // Warp-level DAB holds finished warps until their buffer flushes.
        if !self.model.can_retire(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        }) {
            self.set_flush_wait(sm_idx, slot);
            return;
        }
        self.progress();
        // `no_more_arrivals` is refreshed by the dispatcher each cycle; the
        // conservative value here only delays partial-batch completion by a
        // cycle at worst.
        let gate_before = self.sms[sm_idx].schedulers[sched].completed_batches;
        let warp = self.sms[sm_idx].retire_warp(slot, false);
        debug_assert_eq!(warp.unique, unique);
        if self.event() && self.sms[sm_idx].schedulers[sched].completed_batches != gate_before {
            // The batch gate opened: warps this scheduler had parked with
            // no timer bound (gated atomics) may now be pickable, so the
            // incremental bound must be re-derived exactly.
            self.activity.scheduler_scans += 1;
            let (det_aware, srr_like) = (self.det_aware(), self.srr_like());
            self.sms[sm_idx].recompute_ready_bound(sched, det_aware, srr_like);
        }
        self.model.on_warp_exit(WarpId {
            sched: SchedId { sm: sm_idx, sched },
            slot,
            unique,
        });
        // A warp exiting without reaching its CTA's barrier may complete it.
        self.try_release_barrier(sm_idx, warp.cta_key);
    }
}
