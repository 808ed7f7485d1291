//! Warp scheduling policies, including the paper's determinism-aware ones.
//!
//! Each SM has several warp schedulers; every cycle each scheduler picks one
//! ready warp to issue. The baseline GPU uses Greedy-Then-Oldest ([`Gto`]).
//! DAB's scheduler-level atomic buffers require the *order in which atomics
//! enter the shared buffer* to be deterministic, which the four policies of
//! Section IV-C provide with successively fewer restrictions:
//!
//! - [`Srr`] — Strict Round Robin: warps issue in a fixed cyclic order.
//! - [`Gtrr`] — Greedy-Then-Round-Robin: GTO until every warp has reached
//!   its first atomic (or exited), then SRR for the rest of the kernel.
//! - [`Gtar`] — Greedy-Then-Atomic-Round-Robin: every atomic is a
//!   scheduler-level barrier; atomics execute one at a time in round-robin
//!   warp order, non-atomics schedule greedily in between.
//! - [`Gwat`] — Greedy-With-Atomic-Token: a token cycles through warps and
//!   only the holder may *issue* an atomic; everything else is greedy. The
//!   least restrictive and best performing policy (Fig. 11).
//!
//! All ordering decisions use the warp's deterministic `unique` id — never
//! hardware slot numbers, whose reuse order is timing-dependent.

use std::collections::BTreeSet;

/// Identifies a scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedKind {
    /// Greedy-Then-Oldest (the non-deterministic baseline).
    Gto,
    /// Loose round robin over ready warps.
    Lrr,
    /// Strict Round Robin (deterministic).
    Srr,
    /// Greedy Then Round Robin (deterministic).
    Gtrr,
    /// Greedy Then Atomic Round Robin (deterministic).
    Gtar,
    /// Greedy With Atomic Token (deterministic).
    Gwat,
}

impl SchedKind {
    /// Whether this policy makes the order of atomic issue deterministic.
    pub fn is_determinism_aware(self) -> bool {
        !matches!(self, SchedKind::Gto | SchedKind::Lrr)
    }

    /// Short display name as used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SchedKind::Gto => "GTO",
            SchedKind::Lrr => "LRR",
            SchedKind::Srr => "SRR",
            SchedKind::Gtrr => "GTRR",
            SchedKind::Gtar => "GTAR",
            SchedKind::Gwat => "GWAT",
        }
    }
}

impl std::fmt::Display for SchedKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-warp information the engine exposes to a scheduler each cycle.
///
/// Views are passed sorted by `unique`, one per live warp of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarpView {
    /// Hardware slot of the warp within its SM.
    pub slot: usize,
    /// Deterministic kernel-wide warp id (ordering key for all policies).
    pub unique: u64,
    /// Per-scheduler arrival sequence number ("oldest" for GTO).
    pub arrival: u64,
    /// The warp could issue its next instruction this cycle.
    pub ready: bool,
    /// The warp's next instruction is an atomic reduction.
    pub next_is_atomic: bool,
    /// Blocked at a CTA barrier (`__syncthreads`); SRR skips these.
    pub at_barrier: bool,
    /// Blocked waiting for a DAB buffer flush; SRR skips these.
    pub flush_wait: bool,
    /// Not ready *solely* because its CTA batch may not issue atomics yet;
    /// round-robin policies skip rather than stall on these.
    pub batch_gated: bool,
    /// Earliest cycle at which this warp can become pickable *by timer
    /// alone*: `next_ready` for un-gated `Ready` warps, `u64::MAX` for
    /// warps that need an event (memory response, barrier release, flush,
    /// batch-gate opening) to wake. The event engine folds these into the
    /// scheduler's incremental `ready_bound` instead of rescanning warps.
    pub bound_at: u64,
}

impl WarpView {
    /// A view with every flag clear; tests and engines fill in fields.
    pub fn idle(slot: usize, unique: u64) -> Self {
        Self {
            slot,
            unique,
            arrival: unique,
            ready: false,
            next_is_atomic: false,
            at_barrier: false,
            flush_wait: false,
            batch_gated: false,
            bound_at: u64::MAX,
        }
    }

    fn skippable(&self) -> bool {
        self.at_barrier || self.flush_wait || self.batch_gated
    }
}

/// A warp scheduling policy.
///
/// The engine drives the policy with lifecycle callbacks
/// ([`on_warp_arrive`](Self::on_warp_arrive) /
/// [`on_warp_exit`](Self::on_warp_exit) /
/// [`on_kernel_boundary`](Self::on_kernel_boundary)) and asks it each cycle
/// to [`pick`](Self::pick) one warp from the live set. After issuing, the
/// engine reports back via [`on_issue`](Self::on_issue).
///
/// # Threading contract
///
/// Policy state lives inside its SM's [`SchedulerCtx`](crate::sm).
/// [`pick`](Self::pick) and every callback run in the engine's commit walk,
/// on the thread that simulates the run, sequentially in the fixed
/// (SM, scheduler) order, so policies never observe concurrent calls. `pick` is invoked every cycle a scheduler has live warps — even
/// when gating cleared all ready flags — so stateful policies (token
/// rotation, round-robin cursors) advance on every such cycle. `Send`
/// remains because `DAB_JOBS` workers move whole simulations between
/// threads.
pub trait WarpScheduler: std::fmt::Debug + Send {
    /// The policy's kind tag.
    fn kind(&self) -> SchedKind;

    /// A new warp occupies a slot. `unique` is its deterministic id.
    fn on_warp_arrive(&mut self, unique: u64) {
        let _ = unique;
    }

    /// A warp exited and its slot may be reused.
    fn on_warp_exit(&mut self, unique: u64) {
        let _ = unique;
    }

    /// All warps of the current kernel have drained; reset per-kernel state.
    fn on_kernel_boundary(&mut self) {}

    /// Chooses the warp to issue this cycle, or `None` to stall.
    ///
    /// `views` contains every live warp of this scheduler, sorted by
    /// `unique`. The returned value is the *slot* of the chosen warp, which
    /// must have `ready == true`.
    fn pick(&mut self, views: &[WarpView], cycle: u64) -> Option<usize>;

    /// The engine issued an instruction from warp `unique`.
    fn on_issue(&mut self, unique: u64, was_atomic: bool, cycle: u64) {
        let _ = (unique, was_atomic, cycle);
    }

    /// Warp `unique` arrived at a CTA barrier. Determinism-aware policies
    /// treat this as a turn-consuming event (like issuing an atomic), so a
    /// token or round-robin turn never waits behind a barrier whose release
    /// may transitively depend on another warp's refused atomic. Barrier
    /// arrivals are program-order events, so consuming turns on them keeps
    /// the atomic grant sequence deterministic.
    fn on_barrier_arrival(&mut self, unique: u64) {
        let _ = unique;
    }

    /// Warp `unique` was released from its CTA barrier (under DAB this
    /// coincides with a flush-epoch boundary, keeping it deterministic).
    fn on_barrier_released(&mut self, unique: u64) {
        let _ = unique;
    }

    /// Informs the policy that warp `unique` is ready with an atomic as its
    /// next instruction (called before [`blocks_atomic_of`] queries so
    /// phase-based policies can account for it — GTRR marks such warps as
    /// having reached their first atomic and may switch phases).
    ///
    /// [`blocks_atomic_of`]: Self::blocks_atomic_of
    fn note_atomic_pending(&mut self, unique: u64) {
        let _ = unique;
    }

    /// Whether this policy *steadily* refuses warp `unique`'s next atomic —
    /// i.e. the refusal cannot resolve until some other, currently blocked
    /// warp issues an atomic or exits. Used by DAB's flush-seal logic: such
    /// warps cannot add buffer entries before a flush, so their buffered
    /// contributions are already final.
    ///
    /// Policies that eventually grant every attempted atomic on their own
    /// (GTO, LRR, SRR) return `false`.
    fn blocks_atomic_of(&self, unique: u64) -> bool {
        let _ = unique;
        false
    }
}

/// Constructs a boxed scheduler of the given kind.
///
/// `atomic_exec_latency` is GTAR's serialization interval between
/// consecutive atomics of one scheduler.
pub fn make_scheduler(kind: SchedKind, atomic_exec_latency: u32) -> Box<dyn WarpScheduler> {
    match kind {
        SchedKind::Gto => Box::new(Gto::new()),
        SchedKind::Lrr => Box::new(Lrr::new()),
        SchedKind::Srr => Box::new(Srr::new()),
        SchedKind::Gtrr => Box::new(Gtrr::new()),
        SchedKind::Gtar => Box::new(Gtar::new(atomic_exec_latency)),
        SchedKind::Gwat => Box::new(Gwat::new()),
    }
}

fn next_in_set_after(set: &BTreeSet<u64>, unique: u64) -> Option<u64> {
    set.range(unique + 1..)
        .next()
        .or_else(|| set.iter().next())
        .copied()
}

/// Greedy-Then-Oldest: keep issuing the previously issued warp while it is
/// ready, otherwise the oldest ready warp. The baseline policy [Rogers et
/// al., MICRO 2012].
#[derive(Debug, Default)]
pub struct Gto {
    last: Option<u64>,
}

impl Gto {
    /// Creates a GTO scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn pick_among(&self, views: &[WarpView], allow: impl Fn(&WarpView) -> bool) -> Option<usize> {
        if let Some(last) = self.last {
            if let Some(v) = views
                .iter()
                .find(|v| v.unique == last && v.ready && allow(v))
            {
                return Some(v.slot);
            }
        }
        views
            .iter()
            .filter(|v| v.ready && allow(v))
            .min_by_key(|v| (v.arrival, v.unique))
            .map(|v| v.slot)
    }
}

impl WarpScheduler for Gto {
    fn kind(&self) -> SchedKind {
        SchedKind::Gto
    }

    fn pick(&mut self, views: &[WarpView], _cycle: u64) -> Option<usize> {
        self.pick_among(views, |_| true)
    }

    fn on_issue(&mut self, unique: u64, _was_atomic: bool, _cycle: u64) {
        self.last = Some(unique);
    }

    fn on_warp_exit(&mut self, unique: u64) {
        if self.last == Some(unique) {
            self.last = None;
        }
    }

    fn on_kernel_boundary(&mut self) {
        self.last = None;
    }
}

/// Loose round robin: the next ready warp after the last issued one, in
/// cyclic `unique` order. Non-deterministic for shared buffers (readiness is
/// timing-dependent) but fair.
#[derive(Debug, Default)]
pub struct Lrr {
    last: Option<u64>,
}

impl Lrr {
    /// Creates an LRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl WarpScheduler for Lrr {
    fn kind(&self) -> SchedKind {
        SchedKind::Lrr
    }

    fn pick(&mut self, views: &[WarpView], _cycle: u64) -> Option<usize> {
        if views.is_empty() {
            return None;
        }
        let start = self.last.unwrap_or(0);
        // Views are sorted by unique; rotate to start after `start`.
        let split = views.partition_point(|v| v.unique <= start);
        views[split..]
            .iter()
            .chain(views[..split].iter())
            .find(|v| v.ready)
            .map(|v| v.slot)
    }

    fn on_issue(&mut self, unique: u64, _was_atomic: bool, _cycle: u64) {
        self.last = Some(unique);
    }

    fn on_kernel_boundary(&mut self) {
        self.last = None;
    }
}

/// Strict Round Robin: warps issue in fixed cyclic `unique` order; if the
/// current warp cannot issue, nothing issues (except warps blocked at
/// barriers, flushes, or batch gates, which are skipped). Deterministic but
/// the most restrictive policy (Fig. 7a).
#[derive(Debug, Default)]
pub struct Srr {
    live: BTreeSet<u64>,
    pointer: Option<u64>,
}

impl Srr {
    /// Creates an SRR scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    fn advance(&mut self) {
        if let Some(cur) = self.pointer {
            self.pointer = next_in_set_after(&self.live, cur);
        }
    }
}

impl WarpScheduler for Srr {
    fn kind(&self) -> SchedKind {
        SchedKind::Srr
    }

    fn on_warp_arrive(&mut self, unique: u64) {
        self.live.insert(unique);
        if self.pointer.is_none() {
            self.pointer = self.live.iter().next().copied();
        }
    }

    fn on_warp_exit(&mut self, unique: u64) {
        if self.pointer == Some(unique) {
            self.advance();
        }
        self.live.remove(&unique);
        if self.pointer == Some(unique) {
            // It was the only live warp.
            self.pointer = None;
        }
    }

    fn on_kernel_boundary(&mut self) {
        self.pointer = self.live.iter().next().copied();
    }

    fn pick(&mut self, views: &[WarpView], _cycle: u64) -> Option<usize> {
        let mut cur = self.pointer?;
        for _ in 0..self.live.len() {
            match views.iter().find(|v| v.unique == cur) {
                Some(v) if v.ready => {
                    self.pointer = Some(cur);
                    return Some(v.slot);
                }
                Some(v) if v.skippable() => {
                    cur = next_in_set_after(&self.live, cur)?;
                }
                Some(_) => {
                    // Blocked on a hazard: strict RR stalls the scheduler.
                    return None;
                }
                None => {
                    // Not yet visible this cycle (e.g. exiting); skip.
                    cur = next_in_set_after(&self.live, cur)?;
                }
            }
        }
        None
    }

    fn on_issue(&mut self, unique: u64, _was_atomic: bool, _cycle: u64) {
        if self.pointer == Some(unique) {
            self.advance();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GtrrPhase {
    Greedy,
    RoundRobin,
}

/// Greedy-Then-Round-Robin: GTO scheduling until every live warp has reached
/// its first atomic (or exited), then strict round robin until the kernel
/// ends (Fig. 7b).
#[derive(Debug)]
pub struct Gtrr {
    phase: GtrrPhase,
    reached: BTreeSet<u64>,
    live: BTreeSet<u64>,
    gto: Gto,
    srr: Srr,
}

impl Gtrr {
    /// Creates a GTRR scheduler (starting in the greedy phase).
    pub fn new() -> Self {
        Self {
            phase: GtrrPhase::Greedy,
            reached: BTreeSet::new(),
            live: BTreeSet::new(),
            gto: Gto::new(),
            srr: Srr::new(),
        }
    }

    /// Whether the scheduler has switched to its round-robin phase.
    pub fn in_round_robin(&self) -> bool {
        self.phase == GtrrPhase::RoundRobin
    }
}

impl Default for Gtrr {
    fn default() -> Self {
        Self::new()
    }
}

impl WarpScheduler for Gtrr {
    fn kind(&self) -> SchedKind {
        SchedKind::Gtrr
    }

    fn on_warp_arrive(&mut self, unique: u64) {
        self.live.insert(unique);
        self.srr.on_warp_arrive(unique);
    }

    fn on_warp_exit(&mut self, unique: u64) {
        self.live.remove(&unique);
        self.reached.remove(&unique);
        self.gto.on_warp_exit(unique);
        self.srr.on_warp_exit(unique);
    }

    fn on_kernel_boundary(&mut self) {
        self.phase = GtrrPhase::Greedy;
        self.reached.clear();
        self.gto.on_kernel_boundary();
        self.srr.on_kernel_boundary();
    }

    fn pick(&mut self, views: &[WarpView], cycle: u64) -> Option<usize> {
        if self.phase == GtrrPhase::Greedy {
            for v in views {
                if v.next_is_atomic {
                    self.reached.insert(v.unique);
                }
            }
            // The switch point is reached deterministically: every live warp
            // is parked at its first atomic (or has exited).
            if self.live.iter().all(|u| self.reached.contains(u)) {
                self.phase = GtrrPhase::RoundRobin;
            }
        }
        match self.phase {
            GtrrPhase::Greedy => self.gto.pick_among(views, |v| !v.next_is_atomic),
            GtrrPhase::RoundRobin => self.srr.pick(views, cycle),
        }
    }

    fn on_issue(&mut self, unique: u64, was_atomic: bool, cycle: u64) {
        match self.phase {
            GtrrPhase::Greedy => self.gto.on_issue(unique, was_atomic, cycle),
            GtrrPhase::RoundRobin => self.srr.on_issue(unique, was_atomic, cycle),
        }
    }

    fn note_atomic_pending(&mut self, unique: u64) {
        if self.phase == GtrrPhase::Greedy {
            self.reached.insert(unique);
            if self.live.iter().all(|u| self.reached.contains(u)) {
                self.phase = GtrrPhase::RoundRobin;
            }
        }
    }

    fn blocks_atomic_of(&self, _unique: u64) -> bool {
        // No atomic may issue until the switch to round robin, and the
        // switch itself requires no blocked warp to act first only when all
        // warps are parked at atomics — exactly the sealed situation.
        self.phase == GtrrPhase::Greedy
    }

    fn on_barrier_arrival(&mut self, unique: u64) {
        // A warp parked at a barrier cannot reach its first atomic until
        // released; counting it as "reached" lets the switch happen instead
        // of deadlocking on cross-scheduler barrier dependencies.
        self.reached.insert(unique);
        self.srr.on_barrier_arrival(unique);
    }

    fn on_barrier_released(&mut self, unique: u64) {
        self.srr.on_barrier_released(unique);
    }
}

/// Greedy-Then-Atomic-Round-Robin: atomics execute one at a time per
/// scheduler, in round-robin warp order (each atomic is a scheduler-level
/// barrier); non-atomic instructions schedule greedily around them
/// (Fig. 7c).
///
/// Warps parked at CTA barriers are transparent to the turn rotation:
/// parking is a program-order event and un-parking happens at flush
/// boundaries, so the grant sequence stays deterministic while barrier
/// dependencies can never deadlock the rotation.
#[derive(Debug)]
pub struct Gtar {
    live: BTreeSet<u64>,
    /// Warps currently waiting at a CTA barrier.
    parked: BTreeSet<u64>,
    /// Rotation cursor; the effective turn-holder is the first non-parked
    /// live warp at or after it.
    cursor: Option<u64>,
    /// Serialization: no second atomic may issue before this cycle.
    atomic_busy_until: u64,
    atomic_exec_latency: u32,
    gto: Gto,
}

impl Gtar {
    /// Creates a GTAR scheduler with the given atomic serialization latency.
    pub fn new(atomic_exec_latency: u32) -> Self {
        Self {
            live: BTreeSet::new(),
            parked: BTreeSet::new(),
            cursor: None,
            atomic_busy_until: 0,
            atomic_exec_latency,
            gto: Gto::new(),
        }
    }

    fn effective_holder(&self) -> Option<u64> {
        effective_holder(&self.live, &self.parked, self.cursor)
    }
}

impl WarpScheduler for Gtar {
    fn kind(&self) -> SchedKind {
        SchedKind::Gtar
    }

    fn on_warp_arrive(&mut self, unique: u64) {
        self.live.insert(unique);
        if self.cursor.is_none() {
            self.cursor = self.live.iter().next().copied();
        }
    }

    fn on_warp_exit(&mut self, unique: u64) {
        self.live.remove(&unique);
        self.parked.remove(&unique);
        if self.cursor == Some(unique) {
            self.cursor = if self.live.is_empty() {
                None
            } else {
                next_in_set_after(&self.live, unique)
            };
        }
        self.gto.on_warp_exit(unique);
    }

    fn on_kernel_boundary(&mut self) {
        self.cursor = self.live.iter().next().copied();
        self.parked.clear();
        self.atomic_busy_until = 0;
        self.gto.on_kernel_boundary();
    }

    fn pick(&mut self, views: &[WarpView], cycle: u64) -> Option<usize> {
        // Atomic path: only the effective turn-holder, only when the
        // previous atomic has drained.
        if cycle >= self.atomic_busy_until {
            if let Some(turn) = self.effective_holder() {
                if let Some(v) = views
                    .iter()
                    .find(|v| v.unique == turn && v.ready && v.next_is_atomic)
                {
                    return Some(v.slot);
                }
            }
        }
        // Greedy path for non-atomics.
        self.gto.pick_among(views, |v| !v.next_is_atomic)
    }

    fn on_issue(&mut self, unique: u64, was_atomic: bool, cycle: u64) {
        if was_atomic {
            debug_assert_eq!(Some(unique), self.effective_holder(), "atomic out of turn");
            self.atomic_busy_until = cycle + self.atomic_exec_latency as u64;
            self.cursor = next_in_set_after(&self.live, unique);
        } else {
            self.gto.on_issue(unique, false, cycle);
        }
    }

    fn on_barrier_arrival(&mut self, unique: u64) {
        self.parked.insert(unique);
    }

    fn on_barrier_released(&mut self, unique: u64) {
        self.parked.remove(&unique);
    }

    fn blocks_atomic_of(&self, unique: u64) -> bool {
        // Only the effective turn-holder may issue; its own pending atomic
        // resolves by itself (after the serialization interval).
        self.effective_holder() != Some(unique)
    }
}

/// Greedy-With-Atomic-Token: a token cycles through warps in `unique` order;
/// only the holder may *issue* an atomic (passing the token on issue or
/// exit), while non-atomic instructions schedule greedily (Fig. 7d). The
/// paper's best performing determinism-aware policy.
///
/// As with [`Gtar`], warps parked at CTA barriers are transparent to the
/// token rotation, keeping the atomic grant sequence deterministic without
/// deadlocking on barrier dependencies.
#[derive(Debug)]
pub struct Gwat {
    live: BTreeSet<u64>,
    /// Warps currently waiting at a CTA barrier.
    parked: BTreeSet<u64>,
    /// Rotation cursor; the effective holder is the first non-parked live
    /// warp at or after it.
    cursor: Option<u64>,
    gto: Gto,
}

impl Gwat {
    /// Creates a GWAT scheduler.
    pub fn new() -> Self {
        Self {
            live: BTreeSet::new(),
            parked: BTreeSet::new(),
            cursor: None,
            gto: Gto::new(),
        }
    }

    /// Current effective token holder, if any (for tests and tracing).
    pub fn token_holder(&self) -> Option<u64> {
        effective_holder(&self.live, &self.parked, self.cursor)
    }
}

impl Default for Gwat {
    fn default() -> Self {
        Self::new()
    }
}

impl WarpScheduler for Gwat {
    fn kind(&self) -> SchedKind {
        SchedKind::Gwat
    }

    fn on_warp_arrive(&mut self, unique: u64) {
        self.live.insert(unique);
        if self.cursor.is_none() {
            // At kernel launch the smallest warp id holds the token.
            self.cursor = self.live.iter().next().copied();
        }
    }

    fn on_warp_exit(&mut self, unique: u64) {
        self.live.remove(&unique);
        self.parked.remove(&unique);
        if self.cursor == Some(unique) {
            self.cursor = if self.live.is_empty() {
                None
            } else {
                next_in_set_after(&self.live, unique)
            };
        }
        self.gto.on_warp_exit(unique);
    }

    fn on_kernel_boundary(&mut self) {
        self.cursor = self.live.iter().next().copied();
        self.parked.clear();
        self.gto.on_kernel_boundary();
    }

    fn pick(&mut self, views: &[WarpView], _cycle: u64) -> Option<usize> {
        // The token holder's pending atomic has priority.
        if let Some(token) = self.token_holder() {
            if let Some(v) = views
                .iter()
                .find(|v| v.unique == token && v.ready && v.next_is_atomic)
            {
                return Some(v.slot);
            }
        }
        // Warps wanting an atomic without the token stall; others are greedy.
        self.gto.pick_among(views, |v| !v.next_is_atomic)
    }

    fn on_issue(&mut self, unique: u64, was_atomic: bool, cycle: u64) {
        if was_atomic {
            debug_assert_eq!(Some(unique), self.token_holder(), "atomic without token");
            self.cursor = next_in_set_after(&self.live, unique);
        }
        self.gto.on_issue(unique, was_atomic, cycle);
    }

    fn on_barrier_arrival(&mut self, unique: u64) {
        self.parked.insert(unique);
    }

    fn on_barrier_released(&mut self, unique: u64) {
        self.parked.remove(&unique);
    }

    fn blocks_atomic_of(&self, unique: u64) -> bool {
        // Warps without the token stall on atomics; the holder's pending
        // atomic issues by itself.
        self.token_holder() != Some(unique)
    }
}

/// First non-parked live warp at or after `cursor` (cyclic), if any.
fn effective_holder(
    live: &BTreeSet<u64>,
    parked: &BTreeSet<u64>,
    cursor: Option<u64>,
) -> Option<u64> {
    let cur = cursor?;
    let mut u = if live.contains(&cur) {
        cur
    } else {
        next_in_set_after(live, cur)?
    };
    for _ in 0..live.len() {
        if !parked.contains(&u) {
            return Some(u);
        }
        u = next_in_set_after(live, u)?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready(slot: usize, unique: u64) -> WarpView {
        WarpView {
            ready: true,
            ..WarpView::idle(slot, unique)
        }
    }

    fn ready_atomic(slot: usize, unique: u64) -> WarpView {
        WarpView {
            ready: true,
            next_is_atomic: true,
            ..WarpView::idle(slot, unique)
        }
    }

    #[test]
    fn gto_prefers_last_issued() {
        let mut s = Gto::new();
        let views = [ready(0, 10), ready(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(0)); // oldest
        s.on_issue(11, false, 0);
        assert_eq!(s.pick(&views, 1), Some(1)); // greedy on 11
    }

    #[test]
    fn gto_falls_back_to_oldest() {
        let mut s = Gto::new();
        s.on_issue(11, false, 0);
        let views = [
            ready(0, 10),
            WarpView::idle(1, 11), // not ready
        ];
        assert_eq!(s.pick(&views, 1), Some(0));
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Lrr::new();
        let views = [ready(0, 10), ready(1, 11), ready(2, 12)];
        assert_eq!(s.pick(&views, 0), Some(0));
        s.on_issue(10, false, 0);
        assert_eq!(s.pick(&views, 1), Some(1));
        s.on_issue(11, false, 1);
        assert_eq!(s.pick(&views, 2), Some(2));
        s.on_issue(12, false, 2);
        assert_eq!(s.pick(&views, 3), Some(0));
    }

    #[test]
    fn srr_stalls_on_blocked_warp() {
        let mut s = Srr::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        // Warp 10 is blocked on a hazard; SRR must not issue warp 11.
        let views = [WarpView::idle(0, 10), ready(1, 11)];
        assert_eq!(s.pick(&views, 0), None);
    }

    #[test]
    fn srr_skips_barrier_blocked() {
        let mut s = Srr::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        let views = [
            WarpView {
                at_barrier: true,
                ..WarpView::idle(0, 10)
            },
            ready(1, 11),
        ];
        assert_eq!(s.pick(&views, 0), Some(1));
    }

    #[test]
    fn srr_round_robin_order() {
        let mut s = Srr::new();
        for u in [10, 11, 12] {
            s.on_warp_arrive(u);
        }
        let views = [ready(0, 10), ready(1, 11), ready(2, 12)];
        let mut order = Vec::new();
        for cycle in 0..6 {
            let slot = s.pick(&views, cycle).unwrap_or_else(|| {
                panic!(
                    "SRR declined to pick at cycle {cycle} with {} ready views \
                     (uniques {:?}, pointer state {s:?}): round-robin must \
                     always serve some ready warp",
                    views.len(),
                    views.iter().map(|v| v.unique).collect::<Vec<_>>(),
                )
            });
            let u = views[slot].unique;
            order.push(u);
            s.on_issue(u, false, cycle);
        }
        assert_eq!(order, vec![10, 11, 12, 10, 11, 12]);
    }

    #[test]
    fn srr_exit_advances_pointer() {
        let mut s = Srr::new();
        for u in [10, 11] {
            s.on_warp_arrive(u);
        }
        s.on_warp_exit(10);
        let views = [ready(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(1));
        s.on_warp_exit(11);
        assert_eq!(s.pick(&[], 1), None);
    }

    #[test]
    fn gtrr_blocks_atomics_until_switch() {
        let mut s = Gtrr::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        // Warp 10 wants an atomic, warp 11 still computing: greedy phase
        // issues only 11.
        let views = [ready_atomic(0, 10), ready(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(1));
        assert!(!s.in_round_robin());
        // Now warp 11 also reaches an atomic: the switch happens and SRR
        // issues warp 10 first.
        let views = [ready_atomic(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 1), Some(0));
        assert!(s.in_round_robin());
    }

    #[test]
    fn gtrr_switches_when_others_exit() {
        let mut s = Gtrr::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        s.on_warp_exit(11);
        let views = [ready_atomic(0, 10)];
        assert_eq!(s.pick(&views, 0), Some(0));
        assert!(s.in_round_robin());
    }

    #[test]
    fn gtar_serializes_atomics_in_order() {
        let mut s = Gtar::new(4);
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        let views = [ready_atomic(0, 10), ready_atomic(1, 11)];
        // Warp 10 is the turn-holder.
        assert_eq!(s.pick(&views, 0), Some(0));
        s.on_issue(10, true, 0);
        // Warp 11's atomic must wait out the serialization latency.
        assert_eq!(s.pick(&views, 1), None);
        assert_eq!(s.pick(&views, 4), Some(1));
    }

    #[test]
    fn gtar_non_atomics_flow_between() {
        let mut s = Gtar::new(10);
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        let views = [ready(0, 10), ready_atomic(1, 11)];
        // Warp 10 holds the turn but wants a non-atomic: it issues greedily,
        // and warp 11's atomic waits for warp 10's turn to clear.
        assert_eq!(s.pick(&views, 0), Some(0));
        s.on_issue(10, false, 0);
        assert_eq!(s.pick(&[ready_atomic(1, 11)], 1), None);
        s.on_warp_exit(10); // turn passes to 11
        assert_eq!(s.pick(&[ready_atomic(1, 11)], 2), Some(1));
    }

    #[test]
    fn gwat_token_gates_atomics() {
        let mut s = Gwat::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        assert_eq!(s.token_holder(), Some(10));
        // Warp 11 wants an atomic but lacks the token: only non-atomics go.
        let views = [ready(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(0));
        s.on_issue(10, false, 0);
        // Warp 10 reaches its atomic: token holder has priority.
        let views = [ready_atomic(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 1), Some(0));
        s.on_issue(10, true, 1);
        assert_eq!(s.token_holder(), Some(11));
        // Now warp 11 can issue its atomic while warp 10 continues greedily.
        let views = [ready(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 2), Some(1));
        s.on_issue(11, true, 2);
        assert_eq!(s.token_holder(), Some(10));
    }

    #[test]
    fn gwat_token_passes_on_exit() {
        let mut s = Gwat::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        s.on_warp_exit(10);
        assert_eq!(s.token_holder(), Some(11));
        s.on_warp_exit(11);
        assert_eq!(s.token_holder(), None);
        s.on_warp_arrive(12);
        assert_eq!(s.token_holder(), Some(12));
    }

    #[test]
    fn gwat_parked_warps_are_transparent_to_token() {
        let mut s = Gwat::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        assert_eq!(s.token_holder(), Some(10));
        // Warp 10 parks at a barrier: warp 11 becomes the effective holder
        // without any atomic being issued.
        s.on_barrier_arrival(10);
        assert_eq!(s.token_holder(), Some(11));
        let views = [WarpView::idle(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(1));
        s.on_issue(11, true, 0);
        // The cursor passed 11; with 10 parked, 11 is still the effective
        // holder on the next rotation.
        assert_eq!(s.token_holder(), Some(11));
        // Un-parking restores warp 10 into the rotation.
        s.on_barrier_released(10);
        assert_eq!(s.token_holder(), Some(10));
    }

    #[test]
    fn gwat_all_parked_means_no_holder() {
        let mut s = Gwat::new();
        s.on_warp_arrive(10);
        s.on_barrier_arrival(10);
        assert_eq!(s.token_holder(), None);
        s.on_barrier_released(10);
        assert_eq!(s.token_holder(), Some(10));
    }

    #[test]
    fn gwat_late_arrival_while_holder_parked_gets_token() {
        let mut s = Gwat::new();
        s.on_warp_arrive(10);
        s.on_barrier_arrival(10);
        // A warp arriving after the only holder parked becomes effective
        // holder immediately (the cross-CTA deadlock case).
        s.on_warp_arrive(11);
        assert_eq!(s.token_holder(), Some(11));
    }

    #[test]
    fn gtar_barrier_arrival_skips_turn() {
        let mut s = Gtar::new(4);
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        // Warp 10 (turn-holder) parks; warp 11's atomic may issue.
        s.on_barrier_arrival(10);
        let views = [WarpView::idle(0, 10), ready_atomic(1, 11)];
        assert_eq!(s.pick(&views, 0), Some(1));
        s.on_issue(11, true, 0);
        // Serialization still applies to the next atomic.
        assert_eq!(s.pick(&[ready_atomic(1, 11)], 1), None);
    }

    #[test]
    fn gtar_exit_of_parked_holder_recovers() {
        let mut s = Gtar::new(4);
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        s.on_barrier_arrival(11);
        s.on_warp_exit(10);
        // Warp 11 is parked; no holder until released.
        assert_eq!(s.pick(&[ready_atomic(1, 11)], 0), None);
        s.on_barrier_released(11);
        assert_eq!(s.pick(&[ready_atomic(1, 11)], 1), Some(1));
    }

    #[test]
    fn gtrr_barrier_arrival_counts_as_reached() {
        let mut s = Gtrr::new();
        s.on_warp_arrive(10);
        s.on_warp_arrive(11);
        // Warp 11 parks at a barrier; warp 10 pending an atomic suffices
        // to switch (11 cannot reach its first atomic until released).
        s.on_barrier_arrival(11);
        let views = [ready_atomic(0, 10)];
        assert_eq!(s.pick(&views, 0), Some(0));
        assert!(s.in_round_robin());
    }

    #[test]
    fn gtrr_note_atomic_pending_switches_eagerly() {
        let mut s = Gtrr::new();
        s.on_warp_arrive(10);
        assert!(!s.in_round_robin());
        // The engine's census pass notifies pending atomics before asking
        // about steady refusal; the switch must happen there too.
        s.note_atomic_pending(10);
        assert!(s.in_round_robin());
        assert!(!s.blocks_atomic_of(10));
    }

    #[test]
    fn factory_produces_all_kinds() {
        for kind in [
            SchedKind::Gto,
            SchedKind::Lrr,
            SchedKind::Srr,
            SchedKind::Gtrr,
            SchedKind::Gtar,
            SchedKind::Gwat,
        ] {
            let s = make_scheduler(kind, 4);
            assert_eq!(s.kind(), kind);
        }
    }

    #[test]
    fn determinism_awareness_flags() {
        assert!(!SchedKind::Gto.is_determinism_aware());
        assert!(!SchedKind::Lrr.is_determinism_aware());
        for k in [
            SchedKind::Srr,
            SchedKind::Gtrr,
            SchedKind::Gtar,
            SchedKind::Gwat,
        ] {
            assert!(k.is_determinism_aware());
        }
    }

    #[test]
    fn labels_display() {
        assert_eq!(SchedKind::Gwat.to_string(), "GWAT");
        assert_eq!(SchedKind::Srr.label(), "SRR");
    }
}
