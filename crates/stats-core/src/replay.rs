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
//! only non-semantic resources (pool, sink, queue capacity).
//!
//! Online re-tuning decisions are recorded as
//! [`EventKind::Retune`] events and played back verbatim by an internal
//! retuner, so a run tuned live against a warm results database replays
//! bit-identically *without* the database. `docs/replay.md` documents the
//! log format and its stability contract; `docs/tuning.md` the re-tuning
//! ladder.
//!
//! Every section of the log is one [`SpillCodec`] value, and every record
//! in it is declared once, in this module's `log_codec!` tables: each
//! [`EventKind`] with its wire tag and fields, the fault plan, the policies
//! and the meta fields. Both directions of each codec are generated from
//! that one declaration.

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
    inputs: Inputs,
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
            && self.inputs == other.inputs
    }
}

impl SessionLog {
    /// Number of recorded inputs.
    pub fn input_count(&self) -> u64 {
        self.inputs.count
    }

    /// Decode the recorded inputs as `I` (the input type of the replaying
    /// transition).
    pub fn decode_inputs<I: SpillCodec>(&self) -> Result<Vec<I>, ReplayError> {
        let mut bytes: &[u8] = &self.inputs.bytes;
        // The count is read from the log: reserve no more inputs than there
        // are bytes. Capacity is only a hint, so a zero-byte `I` still decodes.
        let mut inputs = Vec::with_capacity(self.inputs.count.min(bytes.len() as u64) as usize);
        for index in 0..self.inputs.count {
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
    /// `docs/replay.md`: the magic, the version, then one section per
    /// [`SpillCodec`] value.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        LOG_MAGIC.encode(&mut out);
        LOG_VERSION.encode(&mut out);
        section(&mut out, TAG_META, &Meta::of(self));
        if let Some(plan) = &self.faults {
            section(&mut out, TAG_FAULTS, plan);
        }
        section(&mut out, TAG_CHUNKS, &self.chunks);
        section(&mut out, TAG_INPUTS, &self.inputs);
        section(&mut out, TAG_EVENTS, &self.events);
        section(&mut out, TAG_SUMMARY, &self.summary);
        section(&mut out, TAG_END, &[]);
        out
    }

    /// Decode a log written by [`SessionLog::to_bytes`]. Malformed input
    /// yields a typed [`ReplayError`], never a panic; sections with
    /// unknown tags are skipped.
    pub fn from_bytes(buf: &[u8]) -> Result<SessionLog, ReplayError> {
        let mut bytes = buf;
        let magic = <[u8; 8]>::decode(&mut bytes).ok_or(ReplayError::Truncated)?;
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
            let len = usize::decode(&mut bytes).ok_or(ReplayError::Truncated)?;
            let payload = take(&mut bytes, len).ok_or(ReplayError::Truncated)?;
            match tag {
                TAG_END => break,
                TAG_META => meta = Some(value(payload, "meta section")?),
                TAG_FAULTS => faults = Some(value(payload, "faults section")?),
                TAG_CHUNKS => chunks = Some(value(payload, "chunks section")?),
                TAG_INPUTS => inputs = Some(value(payload, "inputs section")?),
                TAG_EVENTS => events = Some(value(payload, "events section")?),
                TAG_SUMMARY => summary = Some(value(payload, "summary section")?),
                // Unknown section from a same-version writer extension:
                // self-describing framing lets us skip it.
                _ => {}
            }
        }

        let meta: Meta = meta.ok_or(ReplayError::MissingSection("meta"))?;
        let chunks: Vec<u64> = chunks.ok_or(ReplayError::MissingSection("chunks"))?;
        let inputs: Inputs = inputs.ok_or(ReplayError::MissingSection("inputs"))?;
        let events = events.ok_or(ReplayError::MissingSection("events"))?;
        let summary = summary.ok_or(ReplayError::MissingSection("summary"))?;
        let total = chunks
            .iter()
            .try_fold(0u64, |sum, &chunk| sum.checked_add(chunk));
        if total != Some(inputs.count) {
            return Err(ReplayError::Corrupt(
                "chunk sizes disagree with input count",
            ));
        }
        Ok(SessionLog {
            config: SpecConfig {
                group_size: meta.group_size,
                window: meta.window,
                max_reexec: meta.max_reexec,
                rollback: meta.rollback,
                speculate: meta.speculate,
                validation_cost: meta.validation_cost,
                ..SpecConfig::default()
            },
            segment: meta.has_segment.then_some(meta.segment),
            adapt: meta.has_adapt.then_some(meta.adapt),
            retry: meta.retry,
            retune_enabled: meta.retune_enabled,
            label: meta.label,
            seed: meta.seed,
            faults,
            chunks,
            events,
            summary,
            inputs,
        })
    }
}

/// Append section `tag` holding `value`: the tag, the payload's length,
/// the payload.
fn section<V: SpillCodec>(out: &mut Vec<u8>, tag: u8, value: &V) {
    let mut payload = Vec::new();
    value.encode(&mut payload);
    out.push(tag);
    payload.len().encode(out);
    out.extend_from_slice(&payload);
}

/// Decode a known section's payload as its value. Bytes past the value are
/// ignored, as every v1 reader has ignored them.
fn value<V: SpillCodec>(mut payload: &[u8], corrupt: &'static str) -> Result<V, ReplayError> {
    V::decode(&mut payload).ok_or(ReplayError::Corrupt(corrupt))
}

// ------------------------------------------------------------- records

/// The meta section, field by field in wire order: the run's label, seed
/// and `SpecConfig` scalars; `segment` and `adapt`, each as a presence flag
/// followed by the value or, when absent, a default placeholder; the retry
/// policy; whether a re-tuner ran.
struct Meta {
    label: String,
    seed: u64,
    group_size: usize,
    window: usize,
    max_reexec: usize,
    rollback: usize,
    speculate: bool,
    validation_cost: f64,
    has_segment: bool,
    segment: usize,
    has_adapt: bool,
    adapt: AdaptPolicy,
    retry: RetryPolicy,
    retune_enabled: bool,
}

impl Meta {
    fn of(log: &SessionLog) -> Meta {
        let config = &log.config;
        Meta {
            label: log.label.clone(),
            seed: log.seed,
            group_size: config.group_size,
            window: config.window,
            max_reexec: config.max_reexec,
            rollback: config.rollback,
            speculate: config.speculate,
            validation_cost: config.validation_cost,
            has_segment: log.segment.is_some(),
            segment: log.segment.unwrap_or_default(),
            has_adapt: log.adapt.is_some(),
            adapt: log.adapt.unwrap_or_default(),
            retry: log.retry,
            retune_enabled: log.retune_enabled,
        }
    }
}

/// The inputs section: the count, then each recorded input's [`SpillCodec`]
/// encoding back to back — the section's last bytes, so decoding takes
/// them all. [`SessionLog::decode_inputs`] reads them as the replaying
/// transition's input type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Inputs {
    count: u64,
    bytes: Vec<u8>,
}

impl SpillCodec for Inputs {
    fn encode(&self, out: &mut Vec<u8>) {
        self.count.encode(out);
        out.extend_from_slice(&self.bytes);
    }
    fn decode(bytes: &mut &[u8]) -> Option<Self> {
        let count = u64::decode(bytes)?;
        Some(Inputs {
            count,
            bytes: std::mem::take(bytes).to_vec(),
        })
    }
}

/// Declares a log record once and generates both directions of its
/// [`SpillCodec`]: fields travel in the order listed, each through its own
/// type's codec, so the type's definition fixes every width. A struct
/// lists its fields; an enum gives each variant a `u8` wire tag, written
/// before the variant's fields. An unknown tag does not decode, and a
/// variant without a row does not compile.
macro_rules! log_codec {
    (struct $ty:ident { $($field:ident),+ $(,)? }) => {
        impl SpillCodec for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                Some($ty { $($field: SpillCodec::decode(bytes)?),+ })
            }
        }
    };
    (enum $ty:ident { $($tag:literal => $variant:ident $({ $($field:ident),+ })?),+ $(,)? }) => {
        // Inlined into the section's `Vec` loop, which otherwise pays a call
        // per event: decoding a log took twice as long without it.
        impl SpillCodec for $ty {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        out.push($tag);
                        $($($field.encode(out);)+)?
                    })+
                }
            }
            #[inline]
            fn decode(bytes: &mut &[u8]) -> Option<Self> {
                Some(match u8::decode(bytes)? {
                    $($tag => $ty::$variant $({ $($field: SpillCodec::decode(bytes)?),+ })?,)+
                    _ => return None,
                })
            }
        }
    };
}

log_codec!(struct Meta {
    label, seed, group_size, window, max_reexec, rollback, speculate, validation_cost,
    has_segment, segment, has_adapt, adapt, retry, retune_enabled,
});
log_codec!(struct AdaptPolicy { shrink_after, min_group_size, grow_after, reprobe_after });
log_codec!(struct RetryPolicy { max_retries, backoff, multiplier });
log_codec!(struct FaultPlan { seed, worker_panic, validation_mismatch, slow_group, queue_stall });
log_codec!(struct FaultRule { rate, attempts, delay });
log_codec!(struct RunDigest { outputs, trace_digest, report_digest });
log_codec!(enum FaultKind {
    0 => WorkerPanic, 1 => ValidationMismatch, 2 => SlowGroup, 3 => QueueStall,
});
log_codec!(enum AdaptState { 0 => Speculative, 1 => Shrunk, 2 => Sequential, 3 => Probing });

// The events section's vocabulary. A tag keeps its meaning for as long as
// `LOG_VERSION` is 1 (`docs/replay.md`): never renumber or reuse one.
log_codec!(enum EventKind {
    0 => RunStart { inputs, groups },
    1 => RunEnd,
    2 => GroupStart { group, start, end, speculative },
    3 => GroupEnd { group },
    4 => Validation { group, attempt, matched },
    5 => Reexecution { group, attempt },
    6 => GroupCommit { group, reexecutions },
    7 => GroupAbort { group },
    8 => SequentialTailStart { index },
    9 => SequentialTailEnd,
    10 => FaultInjected { kind, site, attempt },
    11 => GroupRetry { group, attempt },
    12 => AdaptTransition { state, group_size },
    13 => Retune { segment, group_size, window, max_reexec },
    14 => TenantAdmission { tenant, admitted },
    15 => SpillWrite { tenant, segment, inputs },
    16 => SpillReplay { tenant, segment, inputs },
    17 => NodeValidation { node, matched },
    18 => NodeCommit { node },
    19 => NodeAbort { node },
    20 => ConeSquash { node, root },
});

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
    for (i, node) in trace.nodes.iter().enumerate() {
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
        let deps = trace.deps(i);
        h.usize(deps.len());
        for &d in deps {
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
            inputs: Inputs::default(),
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
            input.encode(&mut log.inputs.bytes);
            log.inputs.count += 1;
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
                input.encode(&mut log.inputs.bytes);
            }
            log.inputs.count += inputs.len() as u64;
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
    fn decide(&mut self, done: &SegmentStats) -> Option<TuneDecision> {
        self.decisions.get(&(done.segment + 1)).copied()
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
/// (pool, sink, queue capacity, tradeoff bindings) — every
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
        let work = crate::ctx::WorkMeter {
            total: 0.0,
            memory: 0.0,
        };
        trace.push(TraceNodeKind::Auxiliary { group: 0 }, work, &[]);
        let a = trace_digest(&trace);
        trace.nodes[0].work.total = -0.0; // same value, different bits
        let b = trace_digest(&trace);
        assert_ne!(a, b);
    }

    /// Where section `tag`'s payload sits in the log `bytes`.
    fn payload(bytes: &[u8], tag: u8) -> std::ops::Range<usize> {
        let mut at = LOG_MAGIC.len() + 4;
        loop {
            let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().unwrap()) as usize;
            if bytes[at] == tag {
                return at + 9..at + 9 + len;
            }
            at += 9 + len;
        }
    }

    /// `bytes` with the `u64` at `offset` into section `tag`'s payload
    /// replaced by `value`.
    fn patched(bytes: &[u8], tag: u8, offset: usize, value: u64) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        let at = payload(&bytes, tag).start + offset;
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        bytes
    }

    /// A log in which every meta, fault-plan and event field holds a value
    /// of its own, with every event kind, fault kind and adapt state.
    fn distinct_log() -> SessionLog {
        let mut log = sample_log();
        log.config = SpecConfig {
            group_size: 3,
            window: 4,
            max_reexec: 5,
            rollback: 6,
            speculate: false,
            validation_cost: 7.5,
            ..SpecConfig::default()
        };
        log.segment = Some(8);
        log.adapt = Some(AdaptPolicy {
            shrink_after: 9,
            min_group_size: 10,
            grow_after: 11,
            reprobe_after: 12,
        });
        log.retry = RetryPolicy {
            max_retries: 13,
            backoff: std::time::Duration::from_nanos(14),
            multiplier: 15,
        };
        log.retune_enabled = true;
        let rule = |n: u32| FaultRule {
            rate: f64::from(n) / 64.0,
            attempts: n + 1,
            delay: std::time::Duration::from_nanos(u64::from(n) + 2),
        };
        log.faults = Some(FaultPlan {
            seed: 16,
            worker_panic: rule(17),
            validation_mismatch: rule(20),
            slow_group: rule(23),
            queue_stall: rule(26),
        });
        use EventKind::*;
        log.events = vec![
            RunStart {
                inputs: 1,
                groups: 2,
            },
            RunEnd,
            GroupStart {
                group: 3,
                start: 4,
                end: 5,
                speculative: true,
            },
            GroupEnd { group: 6 },
            Validation {
                group: 7,
                attempt: 8,
                matched: false,
            },
            Reexecution {
                group: 9,
                attempt: 10,
            },
            GroupCommit {
                group: 11,
                reexecutions: 12,
            },
            GroupAbort { group: 13 },
            SequentialTailStart { index: 14 },
            SequentialTailEnd,
            FaultInjected {
                kind: FaultKind::WorkerPanic,
                site: 15,
                attempt: 16,
            },
            FaultInjected {
                kind: FaultKind::ValidationMismatch,
                site: 17,
                attempt: 18,
            },
            FaultInjected {
                kind: FaultKind::SlowGroup,
                site: 19,
                attempt: 20,
            },
            FaultInjected {
                kind: FaultKind::QueueStall,
                site: 21,
                attempt: 22,
            },
            GroupRetry {
                group: 23,
                attempt: 24,
            },
            AdaptTransition {
                state: AdaptState::Speculative,
                group_size: 25,
            },
            AdaptTransition {
                state: AdaptState::Shrunk,
                group_size: 26,
            },
            AdaptTransition {
                state: AdaptState::Sequential,
                group_size: 27,
            },
            AdaptTransition {
                state: AdaptState::Probing,
                group_size: 28,
            },
            Retune {
                segment: 29,
                group_size: 30,
                window: 31,
                max_reexec: 32,
            },
            TenantAdmission {
                tenant: 33,
                admitted: 34,
            },
            SpillWrite {
                tenant: 35,
                segment: 36,
                inputs: 37,
            },
            SpillReplay {
                tenant: 38,
                segment: 39,
                inputs: 40,
            },
            NodeValidation {
                node: 41,
                matched: true,
            },
            NodeCommit { node: 42 },
            NodeAbort { node: 43 },
            ConeSquash { node: 44, root: 45 },
        ];
        log
    }

    /// The meta, faults and events sections of `distinct_log()` as the
    /// hand-written encoder that the `log_codec!` tables replaced wrote
    /// them. Two fields of one width trading places move bytes here; the
    /// compat fixture's default policies (`shrink_after == grow_after`) and
    /// its event kinds cannot show every such swap.
    const DISTINCT_V1: [(u8, &str); 3] = [
        (
            TAG_META,
            "\
            0600000000000000646f75626c652a000000000000000300000000000000040000000000000005000000000000000600\
            000000000000000000000000001e4001080000000000000001090000000a000000000000000b0000000c0000000d0000\
            000e000000000000000f00000001",
        ),
        (
            TAG_FAULTS,
            "\
            1000000000000000000000000000d13f120000001300000000000000000000000000d43f150000001600000000000000\
            000000000000d73f180000001900000000000000000000000000da3f1b0000001c00000000000000",
        ),
        (
            TAG_EVENTS,
            "\
            1b0000000000000000010000000000000002000000000000000102030000000000000004000000000000000500000000\
            000000010306000000000000000407000000000000000800000000000000000509000000000000000a00000000000000\
            060b000000000000000c00000000000000070d00000000000000080e00000000000000090a000f000000000000001000\
            0000000000000a01110000000000000012000000000000000a02130000000000000014000000000000000a0315000000\
            0000000016000000000000000b170000000000000018000000000000000c0019000000000000000c011a000000000000\
            000c021b000000000000000c031c000000000000000d1d000000000000001e000000000000001f000000000000002000\
            0000000000000e210000000000000022000000000000000f230000000000000024000000000000002500000000000000\
            1026000000000000002700000000000000280000000000000011290000000000000001122a00000000000000132b0000\
            0000000000142c000000000000002d00000000000000",
        ),
    ];

    #[test]
    fn every_record_field_keeps_its_v1_bytes() {
        let log = distinct_log();
        let bytes = log.to_bytes();
        for (tag, v1) in DISTINCT_V1 {
            let written: String = bytes[payload(&bytes, tag)]
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            assert_eq!(written, v1, "section {tag}");
        }
        assert_eq!(SessionLog::from_bytes(&bytes).unwrap(), log);
    }

    #[test]
    fn hostile_event_count_is_a_typed_error() {
        let bytes = patched(&sample_log().to_bytes(), TAG_EVENTS, 0, 0xFF << 56);
        assert_eq!(
            SessionLog::from_bytes(&bytes),
            Err(ReplayError::Corrupt("events section"))
        );
    }

    #[test]
    fn overflowing_chunk_sizes_are_a_typed_error() {
        // 2^64 - 1 + 42 wraps to the 41 recorded inputs.
        let bytes = patched(&sample_log().to_bytes(), TAG_CHUNKS, 8, u64::MAX);
        let bytes = patched(&bytes, TAG_CHUNKS, 16, 42);
        assert_eq!(
            SessionLog::from_bytes(&bytes),
            Err(ReplayError::Corrupt(
                "chunk sizes disagree with input count"
            ))
        );
    }

    #[test]
    fn hostile_input_count_is_a_typed_error() {
        let count = 1 << 61;
        let bytes = patched(&sample_log().to_bytes(), TAG_CHUNKS, 8, count);
        let bytes = patched(&bytes, TAG_CHUNKS, 16, 0);
        let bytes = patched(&bytes, TAG_INPUTS, 0, count);
        let log = SessionLog::from_bytes(&bytes).expect("chunks and count agree");
        let short = Err(ReplayError::InputDecode { index: 41 });
        assert_eq!(log.decode_inputs::<u64>(), short);
        let replayed = replay(&log, ExactState(0), Double, RunOptions::default());
        assert_eq!(replayed.err(), short.err());
    }
}
