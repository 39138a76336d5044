//! Deterministic record/replay of streaming sessions.
//!
//! The paper's determinism contract — same `(inputs, seed, fault plan)` ⇒
//! bit-identical outputs, report, and trace, at any worker count — means a
//! production run is fully reproducible from what it *consumed*, not from
//! what it *did*. This module captures exactly that consumption:
//!
//! - [`SessionRecorder`] wraps a [`Session`] and serializes
//!   everything the run consumed — the seed, the execution-model
//!   configuration, the input stream and its chunking, the fault plan, the
//!   adaptive/retry policies, and (via the event stream) every adaptive and
//!   online re-tuning transition — into a versioned, self-describing binary
//!   [`SessionLog`];
//! - [`replay`] re-executes a log against the caller-supplied transition
//!   and initial state, and verifies the re-run against the recorded run:
//!   the canonical observability event sequence, the trace digest, and the
//!   report digest must all match (zero [`ReplayOutcome::divergences`]).
//!
//! Code is never serialized: the transition function, the initial state,
//! and the tradeoff bindings are program text, supplied by the replaying
//! program. The log overrides every *semantics-bearing* knob of the
//! environment options it is replayed with (seed, configuration scalars,
//! segmenting, faults, adapt/retry policies); the environment contributes
//! only non-semantic resources (pool, sink, queue capacity, priority).
//!
//! Online re-tuning decisions are recorded as
//! [`EventKind::Retune`] events and played back verbatim by an internal
//! retuner, so a run tuned live against a warm results database replays
//! bit-identically *without* the database. `docs/replay.md` documents the
//! log format and its stability contract; `docs/tuning.md` the re-tuning
//! ladder.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::sync::Mutex;

use crate::adapt::{AdaptPolicy, RetryPolicy, Retuner, SegmentStats, TuneDecision};
use crate::codec::{take, SpillCodec};
use crate::faults::{FaultKind, FaultPlan, FaultRule};
use crate::obs::{EventKind, EventSink};
use crate::options::RunOptions;
use crate::protocol::{GroupResolution, SpecConfig, SpecReport, SpecTrace, TraceNodeKind};
use crate::runtime::SpecOutcome;
use crate::sdi::StateTransition;
use crate::session::Session;
use crate::AdaptState;

/// Magic bytes opening every session log.
pub const LOG_MAGIC: [u8; 8] = *b"STATSLOG";

/// Current log format version. Readers reject newer versions with
/// [`ReplayError::UnsupportedVersion`]; unknown *sections* within a known
/// version are skipped (the forward-compatibility contract of
/// `docs/replay.md`).
pub const LOG_VERSION: u32 = 1;

const TAG_END: u8 = 0;
const TAG_META: u8 = 1;
const TAG_FAULTS: u8 = 2;
const TAG_CHUNKS: u8 = 3;
const TAG_INPUTS: u8 = 4;
const TAG_EVENTS: u8 = 5;
const TAG_SUMMARY: u8 = 6;

/// Why a log could not be decoded or replayed. Malformed bytes always
/// surface as one of these — never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplayError {
    /// The buffer does not start with [`LOG_MAGIC`].
    BadMagic,
    /// The log was written by a newer format version than this reader.
    UnsupportedVersion(u32),
    /// The buffer ends before the structure it promises (a section length
    /// past the end, a missing end marker, a field cut short).
    Truncated,
    /// A section's payload does not decode to what its tag promises.
    Corrupt(&'static str),
    /// A required section is absent.
    MissingSection(&'static str),
    /// Input `index` failed to decode as the replaying transition's input
    /// type (wrong type, or a corrupt inputs section).
    InputDecode {
        /// Zero-based index of the input that failed to decode.
        index: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::BadMagic => write!(f, "not a session log (bad magic)"),
            ReplayError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported log version {v} (reader supports {LOG_VERSION})"
                )
            }
            ReplayError::Truncated => write!(f, "truncated session log"),
            ReplayError::Corrupt(what) => write!(f, "corrupt session log: {what}"),
            ReplayError::MissingSection(which) => {
                write!(f, "session log is missing its {which} section")
            }
            ReplayError::InputDecode { index } => {
                write!(
                    f,
                    "input {index} failed to decode for the replaying transition"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Digest of a finished run: what the replay must reproduce byte-for-byte.
///
/// The trace and report digests are FNV-1a over a canonical little-endian
/// serialization of every field (floats as IEEE bit patterns), so "the
/// digests match" is exactly "the structures are equal".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunDigest {
    /// Number of committed outputs.
    pub outputs: u64,
    /// Digest of the recorded [`SpecTrace`] (kinds, work bit patterns,
    /// dependence edges, commit flags).
    pub trace_digest: u64,
    /// Digest of the [`SpecReport`] (group records, counters, work sums).
    pub report_digest: u64,
}

/// Everything a recorded session consumed, plus the digest of what it
/// produced — enough to re-execute the run and verify the re-execution.
///
/// Produced by [`SessionRecorder::finish`]; serialized with
/// [`SessionLog::to_bytes`] and re-read with [`SessionLog::from_bytes`].
#[derive(Debug, Clone)]
pub struct SessionLog {
    /// Free-form label (e.g. a workload name) carried for tooling; the
    /// `stats-report replay` subcommand uses it to re-bind the right
    /// transition.
    pub label: String,
    /// The recorded run seed.
    pub seed: u64,
    /// The recorded execution-model configuration. Tradeoff bindings are
    /// *not* serialized (they are program text, like the transition); the
    /// replaying program supplies them through its environment options.
    pub config: SpecConfig,
    /// The recorded explicit segment length, if one was set.
    pub segment: Option<usize>,
    /// The recorded adaptive-degradation policy, if one was set.
    pub adapt: Option<AdaptPolicy>,
    /// The recorded retry policy.
    pub retry: RetryPolicy,
    /// Whether an online retuner was installed. Replay then installs an
    /// internal retuner playing the recorded [`EventKind::Retune`]
    /// decisions back verbatim (and, like any retuner, forcing the same
    /// default segmentation).
    pub retune_enabled: bool,
    /// The recorded fault plan, if one was set.
    pub faults: Option<FaultPlan>,
    /// Producer-side chunk sizes, in push order: `push` records a chunk of
    /// one, `push_batch` one chunk per call. Replay re-pushes the inputs
    /// with the same chunking.
    pub chunks: Vec<u64>,
    /// The canonical observability event sequence of the recorded run (see
    /// [`canonical_events`]).
    pub events: Vec<EventKind>,
    /// Digest of the recorded run's results.
    pub summary: RunDigest,
    input_count: u64,
    input_bytes: Vec<u8>,
}

// Manual: SpecConfig holds TradeoffBindings (not comparable); equality
// covers exactly the fields the log serializes.
impl PartialEq for SessionLog {
    fn eq(&self, other: &Self) -> bool {
        let knobs = |c: &SpecConfig| {
            (
                c.group_size,
                c.window,
                c.max_reexec,
                c.rollback,
                c.speculate,
                c.validation_cost.to_bits(),
            )
        };
        self.label == other.label
            && self.seed == other.seed
            && knobs(&self.config) == knobs(&other.config)
            && self.segment == other.segment
            && self.adapt == other.adapt
            && self.retry == other.retry
            && self.retune_enabled == other.retune_enabled
            && self.faults == other.faults
            && self.chunks == other.chunks
            && self.events == other.events
            && self.summary == other.summary
            && self.input_count == other.input_count
            && self.input_bytes == other.input_bytes
    }
}

impl SessionLog {
    /// Number of recorded inputs.
    pub fn input_count(&self) -> u64 {
        self.input_count
    }

    /// Decode the recorded inputs as `I` (the input type of the replaying
    /// transition).
    pub fn decode_inputs<I: SpillCodec>(&self) -> Result<Vec<I>, ReplayError> {
        let mut bytes: &[u8] = &self.input_bytes;
        let mut inputs = Vec::with_capacity(self.input_count as usize);
        for index in 0..self.input_count {
            match I::decode(&mut bytes) {
                Some(input) => inputs.push(input),
                None => return Err(ReplayError::InputDecode { index }),
            }
        }
        if !bytes.is_empty() {
            return Err(ReplayError::Corrupt("trailing bytes after the last input"));
        }
        Ok(inputs)
    }

    /// Serialize to the versioned, self-describing binary format of
    /// `docs/replay.md`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&LOG_MAGIC);
        LOG_VERSION.encode(&mut out);

        let mut meta = Vec::new();
        self.label.encode(&mut meta);
        self.seed.encode(&mut meta);
        (self.config.group_size as u64).encode(&mut meta);
        (self.config.window as u64).encode(&mut meta);
        (self.config.max_reexec as u64).encode(&mut meta);
        (self.config.rollback as u64).encode(&mut meta);
        self.config.speculate.encode(&mut meta);
        self.config.validation_cost.encode(&mut meta);
        self.segment.is_some().encode(&mut meta);
        (self.segment.unwrap_or(0) as u64).encode(&mut meta);
        self.adapt.is_some().encode(&mut meta);
        let a = self.adapt.unwrap_or_default();
        a.shrink_after.encode(&mut meta);
        (a.min_group_size as u64).encode(&mut meta);
        a.grow_after.encode(&mut meta);
        a.reprobe_after.encode(&mut meta);
        self.retry.max_retries.encode(&mut meta);
        (self.retry.backoff.as_nanos() as u64).encode(&mut meta);
        self.retry.multiplier.encode(&mut meta);
        self.retune_enabled.encode(&mut meta);
        section(&mut out, TAG_META, &meta);

        if let Some(plan) = &self.faults {
            let mut fp = Vec::new();
            plan.seed.encode(&mut fp);
            for rule in [
                &plan.worker_panic,
                &plan.validation_mismatch,
                &plan.slow_group,
                &plan.queue_stall,
            ] {
                rule.rate.encode(&mut fp);
                rule.attempts.encode(&mut fp);
                (rule.delay.as_nanos() as u64).encode(&mut fp);
            }
            section(&mut out, TAG_FAULTS, &fp);
        }

        let mut chunks = Vec::new();
        self.chunks.encode(&mut chunks);
        section(&mut out, TAG_CHUNKS, &chunks);

        let mut inputs = Vec::new();
        self.input_count.encode(&mut inputs);
        inputs.extend_from_slice(&self.input_bytes);
        section(&mut out, TAG_INPUTS, &inputs);

        let mut events = Vec::new();
        (self.events.len() as u64).encode(&mut events);
        for ev in &self.events {
            encode_event(ev, &mut events);
        }
        section(&mut out, TAG_EVENTS, &events);

        let mut summary = Vec::new();
        self.summary.outputs.encode(&mut summary);
        self.summary.trace_digest.encode(&mut summary);
        self.summary.report_digest.encode(&mut summary);
        section(&mut out, TAG_SUMMARY, &summary);

        section(&mut out, TAG_END, &[]);
        out
    }

    /// Decode a log written by [`SessionLog::to_bytes`]. Malformed input
    /// yields a typed [`ReplayError`], never a panic; sections with
    /// unknown tags are skipped.
    pub fn from_bytes(buf: &[u8]) -> Result<SessionLog, ReplayError> {
        let mut bytes = buf;
        let magic = take(&mut bytes, LOG_MAGIC.len()).ok_or(ReplayError::Truncated)?;
        if magic != LOG_MAGIC {
            return Err(ReplayError::BadMagic);
        }
        let version = u32::decode(&mut bytes).ok_or(ReplayError::Truncated)?;
        if version != LOG_VERSION {
            return Err(ReplayError::UnsupportedVersion(version));
        }

        let mut meta = None;
        let mut faults = None;
        let mut chunks = None;
        let mut inputs = None;
        let mut events = None;
        let mut summary = None;
        loop {
            let tag = u8::decode(&mut bytes).ok_or(ReplayError::Truncated)?;
            let len = u64::decode(&mut bytes).ok_or(ReplayError::Truncated)? as usize;
            let mut payload = take(&mut bytes, len).ok_or(ReplayError::Truncated)?;
            match tag {
                TAG_END => break,
                TAG_META => meta = Some(decode_meta(&mut payload)?),
                TAG_FAULTS => faults = Some(decode_faults(&mut payload)?),
                TAG_CHUNKS => {
                    chunks = Some(
                        Vec::<u64>::decode(&mut payload)
                            .ok_or(ReplayError::Corrupt("chunks section"))?,
                    )
                }
                TAG_INPUTS => {
                    let count =
                        u64::decode(&mut payload).ok_or(ReplayError::Corrupt("inputs section"))?;
                    inputs = Some((count, payload.to_vec()));
                }
                TAG_EVENTS => {
                    let count =
                        u64::decode(&mut payload).ok_or(ReplayError::Corrupt("events section"))?;
                    let mut evs = Vec::with_capacity(count as usize);
                    for _ in 0..count {
                        evs.push(
                            decode_event(&mut payload)
                                .ok_or(ReplayError::Corrupt("events section"))?,
                        );
                    }
                    events = Some(evs);
                }
                TAG_SUMMARY => {
                    let mut word =
                        || u64::decode(&mut payload).ok_or(ReplayError::Corrupt("summary section"));
                    summary = Some(RunDigest {
                        outputs: word()?,
                        trace_digest: word()?,
                        report_digest: word()?,
                    });
                }
                // Unknown section from a same-version writer extension:
                // self-describing framing lets us skip it.
                _ => {}
            }
        }

        let (label, seed, config, segment, adapt, retry, retune_enabled) =
            meta.ok_or(ReplayError::MissingSection("meta"))?;
        let chunks = chunks.ok_or(ReplayError::MissingSection("chunks"))?;
        let (input_count, input_bytes) = inputs.ok_or(ReplayError::MissingSection("inputs"))?;
        let events = events.ok_or(ReplayError::MissingSection("events"))?;
        let summary = summary.ok_or(ReplayError::MissingSection("summary"))?;
        if chunks.iter().sum::<u64>() != input_count {
            return Err(ReplayError::Corrupt(
                "chunk sizes disagree with input count",
            ));
        }
        Ok(SessionLog {
            label,
            seed,
            config,
            segment,
            adapt,
            retry,
            retune_enabled,
            faults,
            chunks,
            events,
            summary,
            input_count,
            input_bytes,
        })
    }
}

type MetaFields = (
    String,
    u64,
    SpecConfig,
    Option<usize>,
    Option<AdaptPolicy>,
    RetryPolicy,
    bool,
);

fn decode_meta(bytes: &mut &[u8]) -> Result<MetaFields, ReplayError> {
    let corrupt = ReplayError::Corrupt("meta section");
    let label = String::decode(bytes).ok_or(corrupt.clone())?;
    let seed = u64::decode(bytes).ok_or(corrupt.clone())?;
    let group_size = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let window = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let max_reexec = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let rollback = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let speculate = bool::decode(bytes).ok_or(corrupt.clone())?;
    let validation_cost = f64::decode(bytes).ok_or(corrupt.clone())?;
    let has_segment = bool::decode(bytes).ok_or(corrupt.clone())?;
    let segment = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let has_adapt = bool::decode(bytes).ok_or(corrupt.clone())?;
    let shrink_after = u32::decode(bytes).ok_or(corrupt.clone())?;
    let min_group_size = u64::decode(bytes).ok_or(corrupt.clone())? as usize;
    let grow_after = u32::decode(bytes).ok_or(corrupt.clone())?;
    let reprobe_after = u32::decode(bytes).ok_or(corrupt.clone())?;
    let max_retries = u32::decode(bytes).ok_or(corrupt.clone())?;
    let backoff_ns = u64::decode(bytes).ok_or(corrupt.clone())?;
    let multiplier = u32::decode(bytes).ok_or(corrupt.clone())?;
    let retune_enabled = bool::decode(bytes).ok_or(corrupt)?;
    Ok((
        label,
        seed,
        SpecConfig {
            group_size,
            window,
            max_reexec,
            rollback,
            speculate,
            validation_cost,
            ..SpecConfig::default()
        },
        has_segment.then_some(segment),
        has_adapt.then_some(AdaptPolicy {
            shrink_after,
            min_group_size,
            grow_after,
            reprobe_after,
        }),
        RetryPolicy {
            max_retries,
            backoff: std::time::Duration::from_nanos(backoff_ns),
            multiplier,
        },
        retune_enabled,
    ))
}

fn decode_faults(bytes: &mut &[u8]) -> Result<FaultPlan, ReplayError> {
    let corrupt = ReplayError::Corrupt("faults section");
    let seed = u64::decode(bytes).ok_or(corrupt.clone())?;
    let mut rules = [FaultRule::off(); 4];
    for rule in &mut rules {
        rule.rate = f64::decode(bytes).ok_or(corrupt.clone())?;
        rule.attempts = u32::decode(bytes).ok_or(corrupt.clone())?;
        rule.delay = std::time::Duration::from_nanos(u64::decode(bytes).ok_or(corrupt.clone())?);
    }
    Ok(FaultPlan::new(seed)
        .worker_panic(rules[0])
        .validation_mismatch(rules[1])
        .slow_group(rules[2])
        .queue_stall(rules[3]))
}

fn section(out: &mut Vec<u8>, tag: u8, payload: &[u8]) {
    out.push(tag);
    (payload.len() as u64).encode(out);
    out.extend_from_slice(payload);
}

// --------------------------------------------------------- event codec

fn encode_event(ev: &EventKind, out: &mut Vec<u8>) {
    let u = |x: usize, out: &mut Vec<u8>| (x as u64).encode(out);
    match ev {
        EventKind::RunStart { inputs, groups } => {
            out.push(0);
            u(*inputs, out);
            u(*groups, out);
        }
        EventKind::RunEnd => out.push(1),
        EventKind::GroupStart {
            group,
            start,
            end,
            speculative,
        } => {
            out.push(2);
            u(*group, out);
            u(*start, out);
            u(*end, out);
            speculative.encode(out);
        }
        EventKind::GroupEnd { group } => {
            out.push(3);
            u(*group, out);
        }
        EventKind::Validation {
            group,
            attempt,
            matched,
        } => {
            out.push(4);
            u(*group, out);
            u(*attempt, out);
            matched.encode(out);
        }
        EventKind::Reexecution { group, attempt } => {
            out.push(5);
            u(*group, out);
            u(*attempt, out);
        }
        EventKind::GroupCommit {
            group,
            reexecutions,
        } => {
            out.push(6);
            u(*group, out);
            u(*reexecutions, out);
        }
        EventKind::GroupAbort { group } => {
            out.push(7);
            u(*group, out);
        }
        EventKind::SequentialTailStart { index } => {
            out.push(8);
            u(*index, out);
        }
        EventKind::SequentialTailEnd => out.push(9),
        EventKind::FaultInjected {
            kind,
            site,
            attempt,
        } => {
            out.push(10);
            out.push(fault_kind_tag(*kind));
            u(*site, out);
            u(*attempt, out);
        }
        EventKind::GroupRetry { group, attempt } => {
            out.push(11);
            u(*group, out);
            u(*attempt, out);
        }
        EventKind::AdaptTransition { state, group_size } => {
            out.push(12);
            out.push(adapt_state_tag(*state));
            u(*group_size, out);
        }
        EventKind::Retune {
            segment,
            group_size,
            window,
            max_reexec,
        } => {
            out.push(13);
            segment.encode(out);
            u(*group_size, out);
            u(*window, out);
            u(*max_reexec, out);
        }
        EventKind::TenantAdmission { tenant, admitted } => {
            out.push(14);
            u(*tenant, out);
            u(*admitted, out);
        }
        EventKind::SpillWrite {
            tenant,
            segment,
            inputs,
        } => {
            out.push(15);
            u(*tenant, out);
            segment.encode(out);
            u(*inputs, out);
        }
        EventKind::SpillReplay {
            tenant,
            segment,
            inputs,
        } => {
            out.push(16);
            u(*tenant, out);
            segment.encode(out);
            u(*inputs, out);
        }
        EventKind::NodeValidation { node, matched } => {
            out.push(17);
            u(*node, out);
            matched.encode(out);
        }
        EventKind::NodeCommit { node } => {
            out.push(18);
            u(*node, out);
        }
        EventKind::NodeAbort { node } => {
            out.push(19);
            u(*node, out);
        }
        EventKind::ConeSquash { node, root } => {
            out.push(20);
            u(*node, out);
            u(*root, out);
        }
    }
}

fn decode_event(bytes: &mut &[u8]) -> Option<EventKind> {
    let tag = u8::decode(bytes)?;
    let u = |bytes: &mut &[u8]| u64::decode(bytes).map(|x| x as usize);
    Some(match tag {
        0 => EventKind::RunStart {
            inputs: u(bytes)?,
            groups: u(bytes)?,
        },
        1 => EventKind::RunEnd,
        2 => EventKind::GroupStart {
            group: u(bytes)?,
            start: u(bytes)?,
            end: u(bytes)?,
            speculative: bool::decode(bytes)?,
        },
        3 => EventKind::GroupEnd { group: u(bytes)? },
        4 => EventKind::Validation {
            group: u(bytes)?,
            attempt: u(bytes)?,
            matched: bool::decode(bytes)?,
        },
        5 => EventKind::Reexecution {
            group: u(bytes)?,
            attempt: u(bytes)?,
        },
        6 => EventKind::GroupCommit {
            group: u(bytes)?,
            reexecutions: u(bytes)?,
        },
        7 => EventKind::GroupAbort { group: u(bytes)? },
        8 => EventKind::SequentialTailStart { index: u(bytes)? },
        9 => EventKind::SequentialTailEnd,
        10 => EventKind::FaultInjected {
            kind: fault_kind_from_tag(u8::decode(bytes)?)?,
            site: u(bytes)?,
            attempt: u(bytes)?,
        },
        11 => EventKind::GroupRetry {
            group: u(bytes)?,
            attempt: u(bytes)?,
        },
        12 => EventKind::AdaptTransition {
            state: adapt_state_from_tag(u8::decode(bytes)?)?,
            group_size: u(bytes)?,
        },
        13 => EventKind::Retune {
            segment: u64::decode(bytes)?,
            group_size: u(bytes)?,
            window: u(bytes)?,
            max_reexec: u(bytes)?,
        },
        14 => EventKind::TenantAdmission {
            tenant: u(bytes)?,
            admitted: u(bytes)?,
        },
        15 => EventKind::SpillWrite {
            tenant: u(bytes)?,
            segment: u64::decode(bytes)?,
            inputs: u(bytes)?,
        },
        16 => EventKind::SpillReplay {
            tenant: u(bytes)?,
            segment: u64::decode(bytes)?,
            inputs: u(bytes)?,
        },
        17 => EventKind::NodeValidation {
            node: u(bytes)?,
            matched: bool::decode(bytes)?,
        },
        18 => EventKind::NodeCommit { node: u(bytes)? },
        19 => EventKind::NodeAbort { node: u(bytes)? },
        20 => EventKind::ConeSquash {
            node: u(bytes)?,
            root: u(bytes)?,
        },
        _ => return None,
    })
}

fn fault_kind_tag(kind: FaultKind) -> u8 {
    match kind {
        FaultKind::WorkerPanic => 0,
        FaultKind::ValidationMismatch => 1,
        FaultKind::SlowGroup => 2,
        FaultKind::QueueStall => 3,
    }
}

fn fault_kind_from_tag(tag: u8) -> Option<FaultKind> {
    Some(match tag {
        0 => FaultKind::WorkerPanic,
        1 => FaultKind::ValidationMismatch,
        2 => FaultKind::SlowGroup,
        3 => FaultKind::QueueStall,
        _ => return None,
    })
}

fn adapt_state_tag(state: AdaptState) -> u8 {
    match state {
        AdaptState::Speculative => 0,
        AdaptState::Shrunk => 1,
        AdaptState::Sequential => 2,
        AdaptState::Probing => 3,
    }
}

fn adapt_state_from_tag(tag: u8) -> Option<AdaptState> {
    Some(match tag {
        0 => AdaptState::Speculative,
        1 => AdaptState::Shrunk,
        2 => AdaptState::Sequential,
        3 => AdaptState::Probing,
        _ => return None,
    })
}

// --------------------------------------------------- canonical ordering

/// Whether the event is emitted from pool worker threads, so its position
/// in raw sink order races with other workers' events. Returns the
/// deterministic sort key `(group/site, attempt, kind rank)` used within
/// its segment.
fn floating_key(ev: &EventKind) -> Option<(usize, usize, u8)> {
    match ev {
        EventKind::GroupStart { group, .. } => Some((*group, 0, 0)),
        EventKind::FaultInjected {
            kind: FaultKind::WorkerPanic | FaultKind::SlowGroup,
            site,
            attempt,
        } => Some((*site, *attempt, 1)),
        EventKind::GroupRetry { group, attempt } => Some((*group, *attempt, 2)),
        EventKind::GroupEnd { group } => Some((*group, usize::MAX, 3)),
        _ => None,
    }
}

/// Put a raw event sequence into the canonical order the determinism
/// contract covers.
///
/// Coordinator-emitted *resolution* events (run/segment boundaries,
/// validations, re-executions, commits, aborts, the sequential tail,
/// forced-mismatch and queue-stall faults, adapt and retune transitions)
/// are deterministic in both content and relative order, and keep their
/// raw order. Worker-emitted *execution* events (group start/end,
/// worker-panic and slow-group faults, retries) are deterministic in
/// content and multiplicity but interleave racily across workers; within
/// each segment they are stably sorted by `(group, attempt, kind)` and
/// placed just before the segment's `RunEnd`. Two runs of the same log are
/// therefore byte-identical after canonicalization — the exact contract
/// `docs/replay.md` documents.
pub fn canonical_events(raw: &[EventKind]) -> Vec<EventKind> {
    let mut out = Vec::with_capacity(raw.len());
    let mut floating: Vec<EventKind> = Vec::new();
    let flush = |floating: &mut Vec<EventKind>, out: &mut Vec<EventKind>| {
        floating.sort_by_key(|ev| floating_key(ev).expect("only floating events are buffered"));
        out.append(floating);
    };
    for ev in raw {
        if floating_key(ev).is_some() {
            floating.push(*ev);
        } else {
            if matches!(ev, EventKind::RunEnd) {
                flush(&mut floating, &mut out);
            }
            out.push(*ev);
        }
    }
    flush(&mut floating, &mut out);
    out
}

// ------------------------------------------------------------- digests

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over u64 *words* rather than bytes: one xor+multiply per field
/// keeps the digest cheap enough for record mode's ≤5% overhead budget
/// while staying fully deterministic.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }
    fn u64(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }
    fn usize(&mut self, x: usize) {
        self.u64(x as u64);
    }
    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }
    fn bool(&mut self, x: bool) {
        self.u64(u64::from(x));
    }
}

/// FNV-1a digest of a [`SpecTrace`]: node kinds and coordinates, work
/// totals and memory splits as IEEE bit patterns, dependence edges, and
/// commit flags. Equal digests ⇔ byte-identical trace layout.
pub fn trace_digest(trace: &SpecTrace) -> u64 {
    let mut h = Fnv::new();
    h.usize(trace.nodes.len());
    for node in &trace.nodes {
        match &node.kind {
            TraceNodeKind::Auxiliary { group } => {
                h.u64(0);
                h.usize(*group);
            }
            TraceNodeKind::Invocation {
                group,
                index,
                attempt,
                sequential_tail,
            } => {
                h.u64(1);
                h.usize(*group);
                h.usize(*index);
                h.usize(*attempt);
                h.bool(*sequential_tail);
            }
            TraceNodeKind::Validation { group, attempt } => {
                h.u64(2);
                h.usize(*group);
                h.usize(*attempt);
            }
        }
        h.f64(node.work.total);
        h.f64(node.work.memory);
        h.usize(node.deps.len());
        for &d in &node.deps {
            h.usize(d);
        }
        h.bool(node.committed);
    }
    h.0
}

/// FNV-1a digest of a [`SpecReport`]: per-group records, counters, the
/// abort flag, and the work sums as IEEE bit patterns.
pub fn report_digest(report: &SpecReport) -> u64 {
    let mut h = Fnv::new();
    h.usize(report.groups.len());
    for g in &report.groups {
        h.usize(g.start);
        h.usize(g.end);
        match g.resolution {
            GroupResolution::NonSpeculative => h.u64(0),
            GroupResolution::Committed { reexecutions } => {
                h.u64(1);
                h.usize(reexecutions);
            }
            GroupResolution::Aborted => h.u64(2),
            GroupResolution::SequentialTail => h.u64(3),
        }
    }
    h.usize(report.reexecutions);
    h.usize(report.validations);
    h.bool(report.aborted);
    h.f64(report.committed_original_work);
    h.f64(report.committed_aux_work);
    h.f64(report.squashed_work);
    h.0
}

// ------------------------------------------------------------ recording

/// Tee sink: appends every event to an in-memory tape and forwards to the
/// wrapped user sink. Always enabled — recording needs the events even
/// when the user's sink is a no-op.
struct TapeSink {
    inner: Arc<dyn EventSink>,
    events: Mutex<Vec<EventKind>>,
}

impl TapeSink {
    fn over(inner: Arc<dyn EventSink>) -> Self {
        TapeSink {
            inner,
            events: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> Vec<EventKind> {
        std::mem::take(&mut *self.events.lock())
    }
}

impl EventSink for TapeSink {
    fn enabled(&self) -> bool {
        true
    }

    fn emit(&self, kind: EventKind) {
        self.events.lock().push(kind);
        if self.inner.enabled() {
            self.inner.emit(kind);
        }
    }
}

/// A [`Session`] that records everything the run consumed
/// into a [`SessionLog`] as it executes.
///
/// ```
/// use stats_core::replay::{replay, SessionRecorder};
/// use stats_core::{ExactState, InvocationCtx, RunOptions, Session, StateTransition};
///
/// struct Double;
/// impl StateTransition for Double {
///     type Input = u64;
///     type State = ExactState<u64>;
///     type Output = u64;
///     fn compute_output(
///         &self,
///         input: &u64,
///         state: &mut ExactState<u64>,
///         ctx: &mut InvocationCtx,
///     ) -> u64 {
///         ctx.charge(1.0);
///         state.0 = *input;
///         2 * *input
///     }
/// }
///
/// let recorder = SessionRecorder::new(ExactState(0), Double, RunOptions::default().seed(7));
/// for i in 0..32 {
///     recorder.push(i);
/// }
/// let (outcome, log) = recorder.finish();
///
/// let bytes = log.to_bytes();
/// let log = stats_core::replay::SessionLog::from_bytes(&bytes).unwrap();
/// let replayed = replay(&log, ExactState(0), Double, RunOptions::default()).unwrap();
/// assert!(replayed.is_faithful());
/// assert_eq!(replayed.outcome.outputs, outcome.outputs);
/// ```
pub struct SessionRecorder<T: StateTransition>
where
    T::Input: SpillCodec,
{
    session: Session<T>,
    tape: Arc<TapeSink>,
    log: Mutex<SessionLog>,
}

impl<T: StateTransition> SessionRecorder<T>
where
    T::Input: SpillCodec,
{
    /// Open a recorded stream from `initial` under `options` (see
    /// [`Session::new`] for the streaming semantics). The options' sink is
    /// teed: the user still observes every event, and the recorder keeps
    /// the canonical sequence for the log.
    pub fn new(initial: T::State, transition: T, mut options: RunOptions) -> Self {
        let log = SessionLog {
            label: String::new(),
            seed: options.seed,
            config: SpecConfig {
                aux_bindings: Default::default(),
                orig_bindings: Default::default(),
                ..options.config.clone()
            },
            segment: options.segment,
            adapt: options.adapt,
            retry: options.retry,
            retune_enabled: options.retune.is_some(),
            faults: options.faults,
            chunks: Vec::new(),
            events: Vec::new(),
            summary: RunDigest::default(),
            input_count: 0,
            input_bytes: Vec::new(),
        };
        let tape = Arc::new(TapeSink::over(Arc::clone(&options.sink)));
        options.sink = Arc::clone(&tape) as Arc<dyn EventSink>;
        SessionRecorder {
            session: Session::new(initial, transition, options),
            tape,
            log: Mutex::new(log),
        }
    }

    /// Set the log's free-form label (e.g. a workload name).
    pub fn label(self, label: impl Into<String>) -> Self {
        self.log.lock().label = label.into();
        self
    }

    /// Record and enqueue one input (one chunk of one). Blocks under
    /// backpressure exactly like [`Session::push`].
    pub fn push(&self, input: T::Input) {
        {
            let mut log = self.log.lock();
            input.encode(&mut log.input_bytes);
            log.input_count += 1;
            log.chunks.push(1);
        }
        self.session.push(input);
    }

    /// Record and enqueue a batch of inputs (one chunk). Blocks under
    /// backpressure exactly like [`Session::push_batch`].
    pub fn push_batch(&self, inputs: impl IntoIterator<Item = T::Input>) {
        let inputs: Vec<T::Input> = inputs.into_iter().collect();
        {
            let mut log = self.log.lock();
            for input in &inputs {
                input.encode(&mut log.input_bytes);
            }
            log.input_count += inputs.len() as u64;
            log.chunks.push(inputs.len() as u64);
        }
        self.session.push_batch(inputs);
    }

    /// Close the stream, drain the engine, and return the outcome together
    /// with the finished [`SessionLog`] (canonical events and result
    /// digests included).
    pub fn finish(self) -> (SpecOutcome<T>, SessionLog) {
        let outcome = self.session.finish();
        let mut log = self.log.into_inner();
        log.events = canonical_events(&self.tape.take());
        log.summary = RunDigest {
            outputs: outcome.outputs.len() as u64,
            trace_digest: trace_digest(&outcome.trace),
            report_digest: report_digest(&outcome.report),
        };
        (outcome, log)
    }
}

// ------------------------------------------------------------- replay

/// Plays recorded [`EventKind::Retune`] decisions back at their recorded
/// segments, replacing the live tuner at replay time (no database needed).
struct ReplayRetuner {
    decisions: BTreeMap<u64, TuneDecision>,
}

impl Retuner for ReplayRetuner {
    fn observe(&mut self, _stats: &SegmentStats) {}

    fn decide(&mut self, next_segment: u64) -> Option<TuneDecision> {
        self.decisions.get(&next_segment).copied()
    }
}

/// What [`replay`] produced and how it compared to the recording.
pub struct ReplayOutcome<T: StateTransition> {
    /// The re-executed run's outcome.
    pub outcome: SpecOutcome<T>,
    /// Positions where the replayed canonical event sequence differs from
    /// the recorded one (plus any length difference). Zero on a faithful
    /// replay.
    pub divergences: usize,
    /// Number of canonical events compared.
    pub events: usize,
    /// Whether the replayed trace digest matches the recorded one.
    pub trace_matched: bool,
    /// Whether the replayed report digest matches the recorded one.
    pub report_matched: bool,
}

impl<T: StateTransition> ReplayOutcome<T> {
    /// Whether the replay reproduced the recording exactly: zero event
    /// divergences and matching trace/report digests.
    pub fn is_faithful(&self) -> bool {
        self.divergences == 0 && self.trace_matched && self.report_matched
    }
}

/// Re-execute a recorded session and verify it against the recording.
///
/// `initial` and `transition` are the same program the recording ran
/// (code is not serialized); `env` contributes only non-semantic resources
/// (pool, sink, queue capacity, priority, tradeoff bindings) — every
/// semantics-bearing knob (seed, configuration scalars, segmenting, fault
/// plan, adapt/retry policies, re-tuning decisions) comes from the log.
/// The recorded inputs are re-pushed with the recorded chunking.
///
/// See [`SessionRecorder`] for a worked record→replay example.
pub fn replay<T: StateTransition>(
    log: &SessionLog,
    initial: T::State,
    transition: T,
    env: RunOptions,
) -> Result<ReplayOutcome<T>, ReplayError>
where
    T::Input: SpillCodec,
{
    let inputs: Vec<T::Input> = log.decode_inputs()?;

    let mut options = env;
    options.seed = log.seed;
    options.config = SpecConfig {
        group_size: log.config.group_size,
        window: log.config.window,
        max_reexec: log.config.max_reexec,
        rollback: log.config.rollback,
        speculate: log.config.speculate,
        validation_cost: log.config.validation_cost,
        ..options.config
    };
    options.segment = log.segment;
    options.adapt = log.adapt;
    options.retry = log.retry;
    options.faults = log.faults;
    options.plan = None;
    options.retune = log.retune_enabled.then(|| {
        let decisions = log
            .events
            .iter()
            .filter_map(|ev| match ev {
                EventKind::Retune {
                    segment,
                    group_size,
                    window,
                    max_reexec,
                } => Some((
                    *segment,
                    TuneDecision {
                        group_size: *group_size,
                        window: *window,
                        max_reexec: *max_reexec,
                    },
                )),
                _ => None,
            })
            .collect();
        Arc::new(Mutex::new(ReplayRetuner { decisions })) as Arc<Mutex<dyn Retuner>>
    });

    let tape = Arc::new(TapeSink::over(Arc::clone(&options.sink)));
    options.sink = Arc::clone(&tape) as Arc<dyn EventSink>;

    let session = Session::new(initial, transition, options);
    let mut iter = inputs.into_iter();
    for &chunk in &log.chunks {
        session.push_batch(iter.by_ref().take(chunk as usize));
    }
    let outcome = session.finish();

    let replayed = canonical_events(&tape.take());
    let divergences = replayed
        .iter()
        .zip(&log.events)
        .filter(|(a, b)| *a != *b)
        .count()
        + replayed.len().abs_diff(log.events.len());
    Ok(ReplayOutcome {
        events: replayed.len().max(log.events.len()),
        divergences,
        trace_matched: trace_digest(&outcome.trace) == log.summary.trace_digest,
        report_matched: report_digest(&outcome.report) == log.summary.report_digest
            && outcome.outputs.len() as u64 == log.summary.outputs,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::InvocationCtx;
    use crate::sdi::ExactState;

    struct Double;
    impl StateTransition for Double {
        type Input = u64;
        type State = ExactState<u64>;
        type Output = u64;
        fn compute_output(
            &self,
            input: &u64,
            state: &mut ExactState<u64>,
            ctx: &mut InvocationCtx,
        ) -> u64 {
            ctx.charge(1.0);
            state.0 = *input;
            2 * *input
        }
    }

    fn sample_log() -> SessionLog {
        let recorder = SessionRecorder::new(
            ExactState(0),
            Double,
            RunOptions::default()
                .seed(42)
                .faults(FaultPlan::new(7).validation_mismatch(FaultRule::transient(0.5))),
        )
        .label("double");
        recorder.push_batch(0..40u64);
        recorder.push(99);
        let (_, log) = recorder.finish();
        log
    }

    #[test]
    fn log_round_trips_through_bytes() {
        let log = sample_log();
        let bytes = log.to_bytes();
        let back = SessionLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.label, "double");
        assert_eq!(back.input_count(), 41);
        assert_eq!(back.chunks, vec![40, 1]);
        assert_eq!(back.decode_inputs::<u64>().unwrap().len(), 41);
    }

    #[test]
    fn truncation_yields_typed_errors_everywhere() {
        let bytes = sample_log().to_bytes();
        for cut in 0..bytes.len() {
            match SessionLog::from_bytes(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("truncation at {cut}/{} decoded successfully", bytes.len()),
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let mut bytes = sample_log().to_bytes();
        assert_eq!(
            SessionLog::from_bytes(&bytes[..4]),
            Err(ReplayError::Truncated)
        );
        bytes[0] = b'X';
        assert_eq!(SessionLog::from_bytes(&bytes), Err(ReplayError::BadMagic));
        let mut bytes = sample_log().to_bytes();
        bytes[8] = 0xFF; // version little-endian low byte
        assert!(matches!(
            SessionLog::from_bytes(&bytes),
            Err(ReplayError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let log = sample_log();
        let bytes = log.to_bytes();
        // Re-frame with an unknown section spliced in before END.
        let end_frame = 1 + 8; // tag + length
        let mut spliced = bytes[..bytes.len() - end_frame].to_vec();
        section(&mut spliced, 0xEE, &[1, 2, 3]);
        section(&mut spliced, TAG_END, &[]);
        assert_eq!(SessionLog::from_bytes(&spliced).unwrap(), log);
    }

    #[test]
    fn replay_of_plain_run_is_faithful() {
        let log = sample_log();
        let r = replay(&log, ExactState(0), Double, RunOptions::default()).unwrap();
        assert!(r.is_faithful(), "divergences: {}", r.divergences);
        assert_eq!(r.outcome.outputs.len(), 41);
    }

    #[test]
    fn replay_detects_a_different_program() {
        struct Triple;
        impl StateTransition for Triple {
            type Input = u64;
            type State = ExactState<u64>;
            type Output = u64;
            fn compute_output(
                &self,
                input: &u64,
                state: &mut ExactState<u64>,
                ctx: &mut InvocationCtx,
            ) -> u64 {
                ctx.charge(2.0); // different work profile => different trace
                state.0 = *input;
                3 * *input
            }
        }
        let log = sample_log();
        let r = replay(&log, ExactState(0), Triple, RunOptions::default()).unwrap();
        assert!(!r.trace_matched);
        assert!(!r.is_faithful());
    }

    #[test]
    fn canonicalization_sorts_worker_events_within_segments() {
        let raw = [
            EventKind::RunStart {
                inputs: 0,
                groups: 0,
            },
            EventKind::GroupEnd { group: 2 },
            EventKind::GroupStart {
                group: 2,
                start: 8,
                end: 12,
                speculative: true,
            },
            EventKind::GroupStart {
                group: 1,
                start: 4,
                end: 8,
                speculative: true,
            },
            EventKind::Validation {
                group: 1,
                attempt: 0,
                matched: true,
            },
            EventKind::GroupEnd { group: 1 },
            EventKind::RunEnd,
        ];
        let canon = canonical_events(&raw);
        // Placed events keep their order; floating events sort by
        // (group, attempt, rank) just before RunEnd.
        assert_eq!(
            canon,
            vec![
                EventKind::RunStart {
                    inputs: 0,
                    groups: 0
                },
                EventKind::Validation {
                    group: 1,
                    attempt: 0,
                    matched: true
                },
                EventKind::GroupStart {
                    group: 1,
                    start: 4,
                    end: 8,
                    speculative: true
                },
                EventKind::GroupEnd { group: 1 },
                EventKind::GroupStart {
                    group: 2,
                    start: 8,
                    end: 12,
                    speculative: true
                },
                EventKind::GroupEnd { group: 2 },
                EventKind::RunEnd,
            ]
        );
    }

    #[test]
    fn digests_are_sensitive_to_float_bits() {
        let mut trace = SpecTrace::default();
        trace.nodes.push(crate::protocol::TraceNode {
            kind: TraceNodeKind::Auxiliary { group: 0 },
            work: crate::ctx::WorkMeter {
                total: 0.0,
                memory: 0.0,
            },
            deps: vec![],
            committed: true,
        });
        let a = trace_digest(&trace);
        trace.nodes[0].work.total = -0.0; // same value, different bits
        let b = trace_digest(&trace);
        assert_ne!(a, b);
    }
}
