//! Chrome trace-event JSON export, loadable in Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`.
//!
//! Mapping: one simulated cycle = 1 µs of trace time (`ts`). Process/track
//! layout keeps the machine hierarchy readable:
//!
//! * `pid 0` — SMs: one thread (`tid` = SM index) per SM, instant events
//!   for issue/sleep/wake/lock/buffer-fill.
//! * `pid 1` — memory partitions: one thread per partition, instant
//!   events for request/response/DRAM activity.
//! * `pid 2` — interconnect: one thread per cluster, inject/eject events.
//! * `pid 3` — global: DAB flush phases and GPUDet modes as instant
//!   events, sample-grid rows as counter (`ph: "C"`) tracks, engine
//!   cycle-skip spans as duration (`ph: "X"`) slices.
//!
//! Output is deterministic: events are emitted in trace order with
//! hand-rendered JSON (no map iteration).

use crate::event::Event;
use crate::trace::Trace;

/// Renders the whole trace as a Chrome trace-event JSON object.
pub fn to_chrome_json(trace: &Trace) -> String {
    to_chrome_json_with_profile(trace, &[])
}

/// Renders the trace plus a set of profiler counter tracks — collapsed-stack
/// `(frame-path, microseconds)` pairs as parsed by
/// [`crate::profile::parse_collapsed`]. Each pair becomes one `ph: "C"`
/// counter sample on `pid 3`, named by its frame path, placed at `ts 0`.
///
/// The profile rides in as a *sidecar* at export time (from a `.folded`
/// file) rather than living inside the trace: profile values are `wall.*`
/// host timings, and embedding them in the trace format would break the
/// trace's byte-identity across runs.
pub fn to_chrome_json_with_profile(trace: &Trace, profile: &[(String, u64)]) -> String {
    let mut events: Vec<String> = Vec::new();

    for (path, us) in profile {
        events.push(format!(
            "{{\"name\":\"{path}\",\"ph\":\"C\",\"ts\":0,\"pid\":3,\"tid\":2,\
             \"args\":{{\"value\":{us}}}}}"
        ));
    }

    for ev in &trace.arch {
        events.push(render_arch_event(ev));
    }
    for s in &trace.samples {
        for (name, value) in [
            ("ready_warps", s.ready_warps),
            ("buffered_entries", s.buffered_entries),
            ("icnt_flits", s.icnt_flits),
            ("rop_queued", s.rop_queued),
        ] {
            events.push(format!(
                "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{},\"pid\":3,\"tid\":0,\
                 \"args\":{{\"value\":{value}}}}}",
                s.cycle
            ));
        }
        for (sm, v) in s.per_sm_buffered.iter().enumerate() {
            events.push(format!(
                "{{\"name\":\"sm{sm}_buffered\",\"ph\":\"C\",\"ts\":{},\"pid\":0,\"tid\":{sm},\
                 \"args\":{{\"value\":{v}}}}}",
                s.cycle
            ));
        }
    }
    for k in &trace.skips {
        // A skip span from..to elides cycles (from, to); render it as a
        // duration slice so idle regions are visible at a glance.
        events.push(format!(
            "{{\"name\":\"engine skip\",\"cat\":\"engine\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":3,\"tid\":1,\"args\":{{}}}}",
            k.from,
            k.to.saturating_sub(k.from)
        ));
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, ev) in events.iter().enumerate() {
        out.push_str(ev);
        if i + 1 < events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

fn instant(name: &str, cat: &str, ts: u64, pid: u32, tid: u32, args: &str) -> String {
    format!(
        "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
         \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
    )
}

fn render_arch_event(ev: &Event) -> String {
    match *ev {
        Event::Issue {
            cycle,
            sm,
            sched,
            slot,
            unique,
            pc,
            kind,
        } => instant(
            &format!("issue {}", kind.as_str()),
            "issue",
            cycle,
            0,
            sm,
            &format!("\"sched\":{sched},\"slot\":{slot},\"warp\":{unique},\"pc\":{pc}"),
        ),
        Event::Sleep {
            cycle,
            sm,
            slot,
            reason,
        } => instant(
            &format!("sleep {}", reason.as_str()),
            "warp",
            cycle,
            0,
            sm,
            &format!("\"slot\":{slot}"),
        ),
        Event::Wake {
            cycle,
            sm,
            slot,
            site,
        } => instant(
            &format!("wake {}", site.as_str()),
            "warp",
            cycle,
            0,
            sm,
            &format!("\"slot\":{slot}"),
        ),
        Event::LockGrant {
            cycle,
            sm,
            slot,
            unique,
        } => instant(
            "lock grant",
            "lock",
            cycle,
            0,
            sm,
            &format!("\"slot\":{slot},\"warp\":{unique}"),
        ),
        Event::IcntInject {
            cycle,
            cluster,
            dest,
            kind,
        } => instant(
            &format!("inject {}", kind.as_str()),
            "icnt",
            cycle,
            2,
            cluster,
            &format!("\"dest\":{dest}"),
        ),
        Event::IcntEject {
            cycle,
            cluster,
            kind,
        } => instant(
            &format!("eject {}", kind.as_str()),
            "icnt",
            cycle,
            2,
            cluster,
            "",
        ),
        Event::PartReq {
            cycle,
            partition,
            kind,
        } => instant(
            &format!("req {}", kind.as_str()),
            "mem",
            cycle,
            1,
            partition,
            "",
        ),
        Event::PartResp {
            cycle,
            partition,
            kind,
        } => instant(
            &format!("resp {}", kind.as_str()),
            "mem",
            cycle,
            1,
            partition,
            "",
        ),
        Event::DramAccess {
            cycle,
            partition,
            count,
        } => instant(
            "dram",
            "mem",
            cycle,
            1,
            partition,
            &format!("\"accesses\":{count}"),
        ),
        Event::BufFill {
            cycle,
            sm,
            sched,
            len,
        } => instant(
            "dab buffer fill",
            "dab",
            cycle,
            0,
            sm,
            &format!("\"sched\":{sched},\"len\":{len}"),
        ),
        Event::Flush { cycle, phase } => {
            instant(&format!("flush {}", phase.as_str()), "dab", cycle, 3, 0, "")
        }
        Event::ModeChange { cycle, mode } => instant(
            &format!("gpudet {}", mode.as_str()),
            "gpudet",
            cycle,
            3,
            0,
            "",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{FlushPhase, InstrKind, Sample, SkipSpan};
    use crate::TraceMode;

    #[test]
    fn export_is_wellformed_and_deterministic() {
        let trace = Trace {
            mode: TraceMode::Full,
            sample_interval: 8,
            arch: vec![
                Event::Issue {
                    cycle: 0,
                    sm: 1,
                    sched: 0,
                    slot: 2,
                    unique: 7,
                    pc: 3,
                    kind: InstrKind::Red,
                },
                Event::Flush {
                    cycle: 5,
                    phase: FlushPhase::Start,
                },
            ],
            samples: vec![Sample {
                cycle: 0,
                ready_warps: 4,
                buffered_entries: 1,
                icnt_flits: 0,
                rop_queued: 0,
                per_sm_buffered: vec![1, 0],
            }],
            skips: vec![SkipSpan { from: 6, to: 20 }],
        };
        let json = to_chrome_json(&trace);
        assert_eq!(json, to_chrome_json(&trace), "export must be deterministic");
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("issue red"));
        assert!(json.contains("flush start"));
        assert!(json.contains("ready_warps"));
        assert!(json.contains("sm0_buffered"));
        assert!(json.contains("engine skip"));
        // Balanced braces as a cheap well-formedness check (no string
        // values in the output contain braces).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn profile_sidecar_becomes_counter_tracks() {
        let trace = Trace {
            mode: TraceMode::Summary,
            sample_interval: 8,
            arch: Vec::new(),
            samples: Vec::new(),
            skips: Vec::new(),
        };
        let profile = vec![
            ("engine;issue;prepare".to_string(), 1500),
            ("engine;dispatch".to_string(), 42),
        ];
        let json = to_chrome_json_with_profile(&trace, &profile);
        assert!(json.contains("\"name\":\"engine;issue;prepare\""));
        assert!(json.contains("\"value\":1500"));
        assert!(json.contains("\"name\":\"engine;dispatch\""));
        // Sidecar-free export of the same trace is unchanged.
        assert_eq!(
            to_chrome_json(&trace),
            to_chrome_json_with_profile(&trace, &[])
        );
    }
}
