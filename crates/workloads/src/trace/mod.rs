//! Trace capture and replay: the `.ltrace` on-disk workload format.
//!
//! The paper's evaluation is trace-driven — the predictors learn last-touch
//! *traces* of PCs — and this module makes traces a first-class workload
//! source: any benchmark's per-node [`Op`] streams can be captured once with
//! a [`TraceWriter`] (or the [`Trace::record`] shorthand), serialized to a
//! compact, versioned binary file, and replayed anywhere as a
//! [`crate::WorkloadSource::Trace`] — mixable with synthetic benchmarks in
//! one sweep. Because programs are deterministic and policy-independent,
//! replaying a recorded trace under any policy produces reports
//! bit-identical to running the original synthetic kernel.
//!
//! # Format versions
//!
//! Two format versions exist; both are read transparently (the decode
//! dispatches on the version byte) and writing defaults to the current
//! version. `docs/manual.md` §7 is the normative byte-level specification
//! of both.
//!
//! * **Version 1** — delta + varint coding: all multi-byte integers are
//!   LEB128 varints; PCs and block ids are delta-encoded against per-stream
//!   running previous values (wrapping subtraction, ZigZag, varint), so the
//!   hot repeated-stride streams of the stencil kernels compress to one or
//!   two bytes per operand (≈2.5–4 B/op).
//! * **Version 2** (current) — everything of v1, plus **repeat blocks**: a
//!   per-stream loop detector ([`detect_repeats`]) recognizes `body^N`
//!   repetition — the dominant shape of every `LoopedScript` benchmark —
//!   and emits each repeated region as a single `(body, reps)` block, so
//!   on-disk size approaches O(one iteration) (≤0.5 B/op on the loop-shaped
//!   kernels). The v2 header also carries per-stream op counts, encoded
//!   byte lengths, repeat-window sizes, and repeat-block counts, which is
//!   what lets [`StreamingTrace`] index, validate, and replay a file
//!   incrementally with a bounded per-node window instead of materializing
//!   every op in memory.
//!
//! [`StreamingTrace`] is the one reader of both versions; [`Trace::load`]
//! opens a file through it and drains every stream into memory.
//!
//! Byte-level layout sketch (see the manual for the full spec):
//!
//! ```text
//! file    := magic version body checksum
//! magic   := "LTRACE\0"              ; 7 bytes
//! version := u8                      ; 1 or 2
//! body    := header stream*                          ; v1
//! body    := header stream_meta* stream*             ; v2
//! header  := name_len:varint name:utf8
//!            nodes:varint seed:varint
//!            iters_flag:u8 [iters:varint if flag = 1]
//! stream_meta := ops:varint bytes:varint window:varint repeats:varint
//! stream  := op_count:varint op*     ; v1: one stream per node, node 0 first
//! stream  := item*                   ; v2: exactly `bytes` bytes
//! item    := op | repeat
//! op      := opcode:u8 payload       ; opcodes 0x00–0x09
//! repeat  := 0x0A body:varint reps:varint
//! checksum:= u64le                   ; FNV-1a 64 over body
//! ```
//!
//! # Examples
//!
//! Record a benchmark, round-trip it through a file, and replay:
//!
//! ```
//! use ltp_workloads::{collect_ops, Benchmark, Trace, WorkloadParams};
//!
//! let params = WorkloadParams::quick(4, 2);
//! let trace = Trace::record(Benchmark::Em3d, &params);
//! assert_eq!(trace.name(), "em3d");
//! assert_eq!(trace.nodes(), 4);
//!
//! let path = std::env::temp_dir().join(format!("ltp-doc-mod-{}.ltrace", std::process::id()));
//! trace.save(&path).unwrap();
//! let back = Trace::load(&path).unwrap();
//! assert_eq!(back, trace);
//! # std::fs::remove_file(&path).unwrap();
//!
//! // Replay programs emit exactly the recorded streams.
//! let mut programs = back.into_programs();
//! let ops = collect_ops(programs[0].as_mut());
//! assert_eq!(&ops[..], &trace.streams()[0][..]);
//! ```

use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;

use crate::program::{Op, Program};
use crate::suite::{Benchmark, WorkloadParams};

pub(crate) mod codec;
pub mod gen;
pub mod repeat;
pub mod stream;

pub use gen::random_trace;
pub use repeat::{detect_repeats, Segment, MAX_REPEAT_BODY};
pub use stream::{StreamingTrace, StreamingTraceProgram, TraceScanStats};

use codec::{
    encode_op, fnv1a, note_op, read_varint, write_varint, DeltaState, TraceInput, OP_REPEAT,
};

/// The 7-byte file magic opening every `.ltrace` file.
pub const TRACE_MAGIC: [u8; 7] = *b"LTRACE\0";

/// The current trace format version (what [`Trace::write_to`] emits).
pub const TRACE_VERSION: u8 = 2;

/// The original (still fully readable) trace format version.
pub const TRACE_VERSION_V1: u8 = 1;

/// Largest per-stream repeat window (in ops) a conforming reader must
/// accept — and therefore the most a streaming replay ever has to buffer
/// per node. Files declaring a larger window are rejected as corrupt. The
/// in-tree writer stays far below this (see [`MAX_REPEAT_BODY`]).
pub const MAX_STREAM_WINDOW: u64 = 1 << 16;

/// Most ops per stream [`Trace::load`] will materialize.
///
/// Repeat blocks make v2 a real decompressor: a few file bytes can declare
/// trillions of ops, and fully decoding such a file is an OOM, not a
/// workload. `load` checks the header op counts against this cap (2³¹ ops
/// ≈ 80 GB of decoded `Op`s) before allocating anything; a stream above it
/// is a clean error pointing at [`StreamingTrace`], whose
/// open/validate/replay costs stay bounded regardless of the declared op
/// count.
pub const MAX_BUFFERED_OPS: u64 = 1 << 31;

/// Error produced while reading or writing a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// An underlying I/O operation failed.
    Io(io::Error),
    /// The file does not begin with [`TRACE_MAGIC`].
    BadMagic,
    /// The file's version byte is not one this build understands.
    UnsupportedVersion(u8),
    /// The file is structurally invalid (truncated, bad checksum, unknown
    /// opcode, …); the message names the first violation found.
    Corrupt(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => write!(f, "not a trace file (bad magic; expected LTRACE)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported trace version {v} (this build reads 1..={TRACE_VERSION})"
                )
            }
            TraceError::Corrupt(what) => write!(f, "corrupt trace file: {what}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// The recorded workload identity every trace header carries.
#[derive(Debug, Clone)]
pub(crate) struct Header {
    pub(crate) name: String,
    pub(crate) workload: WorkloadParams,
}

impl Header {
    fn encode(&self, body: &mut Vec<u8>) {
        write_varint(body, self.name.len() as u64);
        body.extend_from_slice(self.name.as_bytes());
        write_varint(body, u64::from(self.workload.nodes));
        write_varint(body, self.workload.seed);
        match self.workload.iterations {
            None => body.push(0),
            Some(iters) => {
                body.push(1);
                write_varint(body, u64::from(iters));
            }
        }
    }

    pub(crate) fn parse<I: TraceInput + ?Sized>(input: &mut I) -> Result<Header, TraceError> {
        let name_len = read_varint(input, "name length")? as usize;
        let name_bytes = input.take(name_len, "name")?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TraceError::Corrupt("name is not UTF-8".to_string()))?;
        let nodes = read_varint(input, "node count")?;
        let nodes = u16::try_from(nodes)
            .map_err(|_| TraceError::Corrupt(format!("node count {nodes} exceeds u16")))?;
        if nodes < 2 {
            return Err(TraceError::Corrupt(format!(
                "node count must be at least 2, got {nodes}"
            )));
        }
        let seed = read_varint(input, "seed")?;
        let iterations = match input.byte("iteration flag")? {
            0 => None,
            1 => {
                let iters = read_varint(input, "iteration count")?;
                Some(u32::try_from(iters).map_err(|_| {
                    TraceError::Corrupt(format!("iteration count {iters} exceeds u32"))
                })?)
            }
            flag => {
                return Err(TraceError::Corrupt(format!(
                    "iteration flag must be 0 or 1, got {flag}"
                )))
            }
        };
        Ok(Header {
            name,
            workload: WorkloadParams {
                nodes,
                seed,
                iterations,
            },
        })
    }
}

/// The v2 per-stream header record: op count, encoded byte length, repeat
/// window (the largest repeat body in the stream, 0 if none), and repeat
/// block count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StreamMeta {
    pub(crate) ops: u64,
    pub(crate) bytes: u64,
    pub(crate) window: u64,
    pub(crate) repeats: u64,
}

impl StreamMeta {
    fn encode(&self, body: &mut Vec<u8>) {
        write_varint(body, self.ops);
        write_varint(body, self.bytes);
        write_varint(body, self.window);
        write_varint(body, self.repeats);
    }

    pub(crate) fn parse<I: TraceInput + ?Sized>(
        input: &mut I,
        node: u16,
    ) -> Result<StreamMeta, TraceError> {
        let ops = read_varint(input, "stream op count")?;
        let bytes = read_varint(input, "stream byte length")?;
        let window = read_varint(input, "stream repeat window")?;
        if window > MAX_STREAM_WINDOW {
            return Err(TraceError::Corrupt(format!(
                "node {node}'s repeat window {window} exceeds the format \
                 maximum {MAX_STREAM_WINDOW}"
            )));
        }
        let repeats = read_varint(input, "stream repeat count")?;
        Ok(StreamMeta {
            ops,
            bytes,
            window,
            repeats,
        })
    }
}

/// A captured workload: a name, the geometry it was recorded at, and one
/// [`Op`] stream per node.
///
/// A trace pins its machine geometry — the stream count *is* the node
/// count — so replay always runs at the recorded size; seed and iteration
/// metadata ride along so a replayed run reports the same
/// [`WorkloadParams`] as the run it was recorded from.
///
/// `Trace` materializes every op in memory; for traces too large for that,
/// replay the file through [`StreamingTrace`] instead, which decodes each
/// node's stream incrementally with a bounded window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    workload: WorkloadParams,
    streams: Vec<Vec<Op>>,
}

impl Trace {
    /// Captures the per-node op streams of `benchmark` at `params`.
    ///
    /// Programs are deterministic and independent of the coherence policy,
    /// so this drains the instruction streams directly — no simulation is
    /// required, and a replay under any policy is bit-identical to the
    /// synthetic run.
    pub fn record(benchmark: Benchmark, params: &WorkloadParams) -> Trace {
        let mut writer = TraceWriter::new(benchmark.name(), *params);
        for (node, program) in benchmark.programs(params).iter_mut().enumerate() {
            writer.record_program(node as u16, program.as_mut());
        }
        writer.finish()
    }

    /// The workload name recorded in the header (a benchmark name for
    /// in-tree recordings; external producers may use any label).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The geometry the trace was recorded at.
    pub fn workload(&self) -> WorkloadParams {
        self.workload
    }

    /// Number of nodes (one op stream each).
    pub fn nodes(&self) -> u16 {
        self.workload.nodes
    }

    /// The per-node op streams, node 0 first.
    pub fn streams(&self) -> &[Vec<Op>] {
        &self.streams
    }

    /// Total operations across every node.
    pub fn total_ops(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }

    /// Builds one replay [`Program`] per node from a shared trace.
    ///
    /// The streams are shared (not cloned) between the returned programs,
    /// so replaying a large trace costs one cursor per node.
    pub fn programs(trace: &Arc<Trace>) -> Vec<Box<dyn Program>> {
        (0..trace.nodes())
            .map(|node| Box::new(TraceProgram::new(Arc::clone(trace), node)) as Box<dyn Program>)
            .collect()
    }

    /// Consumes the trace into per-node replay programs (convenience over
    /// [`Trace::programs`] for single-use traces).
    pub fn into_programs(self) -> Vec<Box<dyn Program>> {
        Trace::programs(&Arc::new(self))
    }

    /// Serializes the trace in the current format version
    /// ([`TRACE_VERSION`]).
    ///
    /// # Errors
    ///
    /// Returns any error of the underlying writer.
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<()> {
        match self.write_to_version(out, TRACE_VERSION) {
            Ok(()) => Ok(()),
            Err(TraceError::Io(e)) => Err(e),
            Err(other) => unreachable!("non-I/O error writing current version: {other}"),
        }
    }

    /// Serializes the trace in an explicit format version (1 or 2) — for
    /// interoperating with older readers and for backward-compatibility
    /// testing.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnsupportedVersion`] for unknown versions and
    /// [`TraceError::Io`] for writer failures.
    pub fn write_to_version<W: Write>(&self, mut out: W, version: u8) -> Result<(), TraceError> {
        let body = match version {
            TRACE_VERSION_V1 => self.encode_body_v1(),
            TRACE_VERSION => self.encode_body_v2(),
            other => return Err(TraceError::UnsupportedVersion(other)),
        };
        out.write_all(&TRACE_MAGIC)?;
        out.write_all(&[version])?;
        out.write_all(&body)?;
        out.write_all(&fnv1a(&body).to_le_bytes())?;
        out.flush()?;
        Ok(())
    }

    fn header(&self) -> Header {
        Header {
            name: self.name.clone(),
            workload: self.workload,
        }
    }

    fn encode_body_v1(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.total_ops() as usize * 3);
        self.header().encode(&mut body);
        for stream in &self.streams {
            write_varint(&mut body, stream.len() as u64);
            let mut state = DeltaState::new();
            for &op in stream {
                encode_op(&mut body, &mut state, op);
            }
        }
        body
    }

    fn encode_body_v2(&self) -> Vec<u8> {
        let mut encoded: Vec<(StreamMeta, Vec<u8>)> = Vec::with_capacity(self.streams.len());
        for ops in &self.streams {
            encoded.push(encode_stream_v2(ops));
        }
        let mut body = Vec::with_capacity(64 + encoded.iter().map(|(_, b)| b.len()).sum::<usize>());
        self.header().encode(&mut body);
        for (meta, _) in &encoded {
            meta.encode(&mut body);
        }
        for (_, bytes) in &encoded {
            body.extend_from_slice(bytes);
        }
        body
    }

    /// Writes the trace to `path` (conventionally `*.ltrace`) in the
    /// current format version.
    ///
    /// # Errors
    ///
    /// Returns any error from creating or writing the file.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.write_to(io::BufWriter::new(file))
    }

    /// Reads a trace from `path` (either format version): the file is
    /// validated by [`StreamingTrace::open`], then every stream is drained
    /// into memory.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] for I/O failures or malformed content, for
    /// a stream declaring more than [`MAX_BUFFERED_OPS`] ops, and for a
    /// file that changes on disk while it is drained.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Trace, TraceError> {
        Trace::drain(&Arc::new(StreamingTrace::open(path)?))
    }

    /// Decodes every stream of an opened file into memory.
    fn drain(file: &Arc<StreamingTrace>) -> Result<Trace, TraceError> {
        for node in 0..file.nodes() {
            let ops = file.stream_ops(node);
            if ops > MAX_BUFFERED_OPS {
                return Err(TraceError::Corrupt(format!(
                    "node {node} declares {ops} ops, beyond Trace::load's cap of \
                     {MAX_BUFFERED_OPS} (replay this file through StreamingTrace instead)"
                )));
            }
        }
        let streams = (0..file.nodes())
            .map(|node| {
                let mut program = StreamingTraceProgram::new(Arc::clone(file), node)?;
                let mut stream = Vec::with_capacity((file.stream_ops(node) as usize).min(1 << 24));
                while let Some(op) = program.try_next_op()? {
                    stream.push(op);
                }
                Ok(stream)
            })
            .collect::<Result<_, TraceError>>()?;
        Ok(Trace {
            name: file.name().to_string(),
            workload: file.workload(),
            streams,
        })
    }

    /// Counts operations by kind across every node, in the fixed order
    /// `think, read, write, lock, unlock, barrier, flag-set, flag-wait`
    /// (the `trace-info` inspector's histogram).
    pub fn op_histogram(&self) -> [(&'static str, u64); 8] {
        let mut counts = [0u64; 8];
        for stream in &self.streams {
            for op in stream {
                counts[op_kind_slot(op)] += 1;
            }
        }
        std::array::from_fn(|i| (OP_KIND_NAMES[i], counts[i]))
    }
}

/// Histogram kind names, in slot order (see [`Trace::op_histogram`]).
pub(crate) const OP_KIND_NAMES: [&str; 8] = [
    "think",
    "read",
    "write",
    "lock",
    "unlock",
    "barrier",
    "flag-set",
    "flag-wait",
];

/// The histogram slot of one op.
pub(crate) fn op_kind_slot(op: &Op) -> usize {
    match op {
        Op::Think(_) => 0,
        Op::Read { .. } => 1,
        Op::Write { .. } => 2,
        Op::Lock(_) => 3,
        Op::Unlock(_) => 4,
        Op::Barrier(_) => 5,
        Op::FlagSet { .. } => 6,
        Op::FlagWait { .. } => 7,
    }
}

/// Encodes one stream in the v2 format: loop-detect, then emit literal ops
/// and repeat blocks.
fn encode_stream_v2(ops: &[Op]) -> (StreamMeta, Vec<u8>) {
    let mut out = Vec::with_capacity(16 + ops.len().min(1 << 20) * 3);
    let mut state = DeltaState::new();
    let mut window = 0u64;
    let mut repeats = 0u64;
    let mut pos = 0usize;
    for segment in detect_repeats(ops, MAX_REPEAT_BODY) {
        match segment {
            Segment::Literal { len } => {
                for &op in &ops[pos..pos + len] {
                    encode_op(&mut out, &mut state, op);
                }
                pos += len;
            }
            Segment::Repeat { body, reps } => {
                out.push(OP_REPEAT);
                write_varint(&mut out, body as u64);
                write_varint(&mut out, reps);
                // The expanded ops never hit the wire, but the delta chains
                // advance over them as if they had (the decoder does the
                // same while expanding).
                let covered = body * reps as usize;
                for &op in &ops[pos..pos + covered] {
                    note_op(&mut state, op);
                }
                pos += covered;
                window = window.max(body as u64);
                repeats += 1;
            }
        }
    }
    debug_assert_eq!(pos, ops.len(), "segments cover the stream");
    (
        StreamMeta {
            ops: ops.len() as u64,
            bytes: out.len() as u64,
            window,
            repeats,
        },
        out,
    )
}

/// Records per-node [`Op`] streams into a [`Trace`].
///
/// Use this to capture op streams from any producer — an in-tree benchmark
/// (see [`Trace::record`]), a hand-built scenario, or an external
/// trace-conversion tool. Serialization applies the per-stream loop
/// detector ([`detect_repeats`]), so `body^N`-shaped streams cost roughly
/// one body on disk.
///
/// # Examples
///
/// ```
/// use ltp_core::{BlockId, Pc};
/// use ltp_workloads::{Op, Trace, TraceWriter, WorkloadParams};
///
/// let mut writer = TraceWriter::new("handoff", WorkloadParams::quick(2, 1));
/// writer.push(0, Op::Write { pc: Pc::new(0x40), block: BlockId::new(7) });
/// writer.push(1, Op::Read { pc: Pc::new(0x80), block: BlockId::new(7) });
/// let trace = writer.finish();
/// assert_eq!(trace.total_ops(), 2);
///
/// let path = std::env::temp_dir().join(format!("ltp-doc-writer-{}.ltrace", std::process::id()));
/// trace.save(&path).unwrap();
/// assert_eq!(Trace::load(&path).unwrap(), trace);
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct TraceWriter {
    name: String,
    workload: WorkloadParams,
    streams: Vec<Vec<Op>>,
}

impl TraceWriter {
    /// Starts a recording named `name` at the given geometry (one empty
    /// stream per `workload.nodes`).
    ///
    /// # Panics
    ///
    /// Panics if `workload.nodes < 2` — the same floor every workload
    /// enforces, checked here so a writer can never produce a file that
    /// [`Trace::load`] would reject.
    pub fn new(name: &str, workload: WorkloadParams) -> TraceWriter {
        assert!(workload.nodes >= 2, "traces need at least 2 nodes");
        TraceWriter {
            name: name.to_string(),
            workload,
            streams: vec![Vec::new(); usize::from(workload.nodes)],
        }
    }

    /// Appends one operation to `node`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the recorded geometry.
    pub fn push(&mut self, node: u16, op: Op) {
        self.streams[usize::from(node)].push(op);
    }

    /// Drains `program` to completion into `node`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the recorded geometry.
    pub fn record_program(&mut self, node: u16, program: &mut dyn Program) {
        while let Some(op) = program.next_op() {
            self.push(node, op);
        }
    }

    /// Finishes the recording.
    pub fn finish(self) -> Trace {
        Trace {
            name: self.name,
            workload: self.workload,
            streams: self.streams,
        }
    }
}

/// Replays one node's stream of a shared, fully-decoded [`Trace`].
///
/// For replay without materializing the trace, see
/// [`StreamingTraceProgram`].
#[derive(Debug, Clone)]
pub struct TraceProgram {
    trace: Arc<Trace>,
    node: usize,
    cursor: usize,
}

impl TraceProgram {
    /// A replay cursor over `node`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the trace's geometry.
    pub fn new(trace: Arc<Trace>, node: u16) -> TraceProgram {
        assert!(
            node < trace.nodes(),
            "trace `{}` has {} nodes, no node {node}",
            trace.name(),
            trace.nodes()
        );
        TraceProgram {
            trace,
            node: usize::from(node),
            cursor: 0,
        }
    }
}

impl Program for TraceProgram {
    fn len_hint(&self) -> Option<u64> {
        Some(self.trace.streams[self.node].len() as u64)
    }

    fn next_op(&mut self) -> Option<Op> {
        let op = self.trace.streams[self.node].get(self.cursor).copied();
        if op.is_some() {
            self.cursor += 1;
        }
        op
    }
}

/// Writes `bytes` to a fresh temporary file and loads it back through
/// [`Trace::load`] — how tests feed crafted bytes to the one reader.
#[cfg(test)]
pub(crate) fn load_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "ltp-bytes-{}-{}.ltrace",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let loaded = Trace::load(&path);
    std::fs::remove_file(&path).unwrap();
    loaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{collect_ops, Lock};
    use ltp_core::{BlockId, Pc};

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Think(5),
            Op::Read {
                pc: Pc::new(0x1000),
                block: BlockId::new(40),
            },
            Op::Write {
                pc: Pc::new(0x1004),
                block: BlockId::new(41),
            },
            Op::Lock(Lock::library(BlockId::new(7), 0x2000)),
            Op::Unlock(Lock::library(BlockId::new(7), 0x2000)),
            Op::Barrier(3),
            Op::FlagSet {
                pc: Pc::new(0x3000),
                block: BlockId::new(99),
            },
            Op::FlagWait {
                pc: Pc::new(0x3004),
                block: BlockId::new(99),
            },
            Op::Lock(Lock::ad_hoc(BlockId::new(8), 0x4000)),
            Op::Unlock(Lock::ad_hoc(BlockId::new(8), 0x4000)),
            Op::Think(0),
            Op::Read {
                pc: Pc::new(0),
                block: BlockId::new(u64::MAX),
            },
        ]
    }

    fn sample_trace() -> Trace {
        let mut writer = TraceWriter::new("sample", WorkloadParams::quick(2, 1));
        for op in sample_ops() {
            writer.push(0, op);
        }
        writer.push(
            1,
            Op::Read {
                pc: Pc::new(4),
                block: BlockId::new(1),
            },
        );
        writer.finish()
    }

    fn to_bytes(trace: &Trace) -> Vec<u8> {
        let mut bytes = Vec::new();
        trace.write_to(&mut bytes).unwrap();
        bytes
    }

    fn to_bytes_version(trace: &Trace, version: u8) -> Vec<u8> {
        let mut bytes = Vec::new();
        trace.write_to_version(&mut bytes, version).unwrap();
        bytes
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        use codec::{read_varint, unzigzag, write_varint, zigzag, IoInput};
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut input = IoInput::new(&buf[..]);
            assert_eq!(read_varint(&mut input, "v").unwrap(), v);
            assert_eq!(input.consumed(), buf.len() as u64);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn every_op_kind_round_trips_in_both_versions() {
        let trace = sample_trace();
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            let back = load_bytes(&to_bytes_version(&trace, version)).unwrap();
            assert_eq!(back, trace, "version {version}");
            assert_eq!(back.streams()[0], sample_ops(), "version {version}");
        }
    }

    #[test]
    fn header_metadata_round_trips() {
        for iterations in [None, Some(0), Some(7), Some(u32::MAX)] {
            let workload = WorkloadParams {
                nodes: 3,
                seed: u64::MAX,
                iterations,
            };
            let trace = TraceWriter::new("meta", workload).finish();
            for version in [TRACE_VERSION_V1, TRACE_VERSION] {
                let back = load_bytes(&to_bytes_version(&trace, version)).unwrap();
                assert_eq!(back.workload(), workload);
                assert_eq!(back.name(), "meta");
                assert_eq!(back.streams().len(), 3);
            }
        }
    }

    #[test]
    fn golden_prefix_is_stable() {
        // The first bytes of the format are load-bearing for external
        // producers: magic, version, then the varint-length-prefixed name.
        for (version, expect) in [(TRACE_VERSION_V1, 1u8), (TRACE_VERSION, 2u8)] {
            let bytes = to_bytes_version(&sample_trace(), version);
            assert_eq!(&bytes[..7], b"LTRACE\0");
            assert_eq!(bytes[7], expect, "format version byte");
            assert_eq!(bytes[8], 6, "name length varint");
            assert_eq!(&bytes[9..15], b"sample");
        }
    }

    #[test]
    fn unknown_write_version_is_rejected() {
        let err = sample_trace().write_to_version(Vec::new(), 3).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion(3)), "{err}");
    }

    #[test]
    fn looped_streams_collapse_to_repeat_blocks() {
        // body^N must cost ~one body: the whole point of format v2.
        let mut writer = TraceWriter::new("loop", WorkloadParams::quick(2, 1));
        let body = [
            Op::Read {
                pc: Pc::new(0x100),
                block: BlockId::new(10),
            },
            Op::Write {
                pc: Pc::new(0x104),
                block: BlockId::new(10),
            },
            Op::Think(25),
        ];
        for _ in 0..200 {
            for op in body {
                writer.push(0, op);
                writer.push(1, op);
            }
        }
        let trace = writer.finish();
        let v1 = to_bytes_version(&trace, TRACE_VERSION_V1);
        let v2 = to_bytes_version(&trace, TRACE_VERSION);
        assert!(
            v2.len() * 10 < v1.len(),
            "expected >10x shrink: v1 {} bytes, v2 {} bytes",
            v1.len(),
            v2.len()
        );
        let per_op = v2.len() as f64 / trace.total_ops() as f64;
        assert!(per_op < 0.5, "loop-shaped stream at {per_op:.3} B/op");
        assert_eq!(load_bytes(&v2).unwrap(), trace);
    }

    #[test]
    fn replay_programs_emit_recorded_streams() {
        let trace = Arc::new(sample_trace());
        let mut programs = Trace::programs(&trace);
        assert_eq!(programs.len(), 2);
        for (node, program) in programs.iter_mut().enumerate() {
            assert_eq!(collect_ops(program.as_mut()), trace.streams()[node]);
        }
        // A second replay from the same trace is identical.
        let mut again = Trace::programs(&trace);
        assert_eq!(
            collect_ops(again[0].as_mut()),
            trace.streams()[0],
            "replay is repeatable"
        );
    }

    #[test]
    fn recording_a_benchmark_matches_its_programs() {
        let params = WorkloadParams::quick(3, 2);
        let trace = Trace::record(Benchmark::Tomcatv, &params);
        assert_eq!(trace.name(), "tomcatv");
        let mut direct = Benchmark::Tomcatv.programs(&params);
        for (node, program) in direct.iter_mut().enumerate() {
            assert_eq!(collect_ops(program.as_mut()), trace.streams()[node]);
        }
    }

    #[test]
    fn op_histogram_counts_by_kind() {
        let hist = sample_trace().op_histogram();
        let get = |name: &str| hist.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("think"), 2);
        assert_eq!(get("read"), 3); // two on node 0, one on node 1
        assert_eq!(get("lock"), 2);
        assert_eq!(get("barrier"), 1);
        assert_eq!(hist.iter().map(|(_, c)| c).sum::<u64>(), 13);
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            load_bytes(b"NOTRACE\x01rest"),
            Err(TraceError::BadMagic)
        ));
        assert!(matches!(load_bytes(b"LT"), Err(TraceError::BadMagic)));
    }

    #[test]
    fn unsupported_version_is_rejected() {
        let mut bytes = to_bytes(&sample_trace());
        for bad in [0u8, 3, 9, 255] {
            bytes[7] = bad;
            assert!(matches!(
                load_bytes(&bytes),
                Err(TraceError::UnsupportedVersion(v)) if v == bad
            ));
        }
    }

    #[test]
    fn corruption_fails_the_checksum() {
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            let mut bytes = to_bytes_version(&sample_trace(), version);
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            let err = load_bytes(&bytes).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("checksum"), "{err}");
        }
    }

    #[test]
    fn truncation_is_detected() {
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            let bytes = to_bytes_version(&sample_trace(), version);
            let err = load_bytes(&bytes[..bytes.len() - 9]).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        // Append bytes *inside* the checksummed region by re-checksumming.
        let body = to_bytes(&sample_trace());
        let payload_end = body.len() - 8;
        let mut tampered = body[..payload_end].to_vec();
        tampered.push(0xee);
        let digest = fnv1a(&tampered[8..]);
        tampered.extend_from_slice(&digest.to_le_bytes());
        let err = load_bytes(&tampered).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    /// Builds a syntactically framed file (magic + version + body +
    /// correct checksum) around an arbitrary body — for crafting invalid
    /// bodies that still pass the outer integrity checks.
    fn frame(version: u8, body: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.push(version);
        bytes.extend_from_slice(body);
        bytes.extend_from_slice(&fnv1a(body).to_le_bytes());
        bytes
    }

    #[test]
    fn absurd_name_length_is_corrupt_not_a_panic() {
        // name_len = u64::MAX must not overflow the decoder's cursor.
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            let mut body = Vec::new();
            write_varint(&mut body, u64::MAX);
            let err = load_bytes(&frame(version, &body)).unwrap_err();
            assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("name"), "{err}");
        }
    }

    #[test]
    fn undersized_node_counts_are_corrupt() {
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            for nodes in [0u64, 1] {
                let mut body = Vec::new();
                write_varint(&mut body, 1); // name_len
                body.push(b'x');
                write_varint(&mut body, nodes);
                write_varint(&mut body, 0); // seed
                body.push(0); // iters_flag
                let err = load_bytes(&frame(version, &body)).unwrap_err();
                assert!(
                    err.to_string().contains("at least 2"),
                    "v{version} nodes={nodes}: {err}"
                );
            }
        }
    }

    /// A hand-framed v2 body with one declared stream meta per node and raw
    /// stream bytes appended — for crafting invalid repeat structures.
    fn frame_v2(metas: &[StreamMeta], streams: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        write_varint(&mut body, 1);
        body.push(b'x');
        write_varint(&mut body, metas.len() as u64); // nodes
        write_varint(&mut body, 0); // seed
        body.push(0); // iters_flag
        for meta in metas {
            meta.encode(&mut body);
        }
        body.extend_from_slice(streams);
        frame(TRACE_VERSION, &body)
    }

    #[test]
    fn malformed_repeat_blocks_are_corrupt() {
        let think = |out: &mut Vec<u8>| {
            out.push(codec::OP_THINK);
            write_varint(out, 1);
        };
        let meta = |ops, bytes, window, repeats| StreamMeta {
            ops,
            bytes,
            window,
            repeats,
        };
        let empty = meta(0, 0, 0, 0);
        let load = |metas: &[StreamMeta], s: &[u8]| load_bytes(&frame_v2(metas, s)).unwrap_err();

        // Repeat reaching before the first op.
        let mut s = Vec::new();
        s.push(OP_REPEAT);
        write_varint(&mut s, 1);
        write_varint(&mut s, 4);
        let err = load(&[meta(4, s.len() as u64, 1, 1), empty], &s);
        assert!(err.to_string().contains("before the stream"), "{err}");

        // Repeat body exceeding the declared window.
        let mut s = Vec::new();
        think(&mut s);
        think(&mut s);
        s.push(OP_REPEAT);
        write_varint(&mut s, 2);
        write_varint(&mut s, 2);
        let err = load(&[meta(6, s.len() as u64, 1, 1), empty], &s);
        assert!(err.to_string().contains("window"), "{err}");

        // Repeat overrunning the declared op count.
        let mut s = Vec::new();
        think(&mut s);
        s.push(OP_REPEAT);
        write_varint(&mut s, 1);
        write_varint(&mut s, 100);
        let err = load(&[meta(5, s.len() as u64, 1, 1), empty], &s);
        assert!(err.to_string().contains("overruns"), "{err}");

        // Repeat-count overflow (body × reps wraps u64) is caught, not UB.
        let mut s = Vec::new();
        think(&mut s);
        s.push(OP_REPEAT);
        write_varint(&mut s, 1);
        write_varint(&mut s, u64::MAX);
        let err = load(&[meta(5, s.len() as u64, 1, 1), empty], &s);
        assert!(err.to_string().contains("overruns"), "{err}");

        // Declared byte length that disagrees with the stream.
        let mut s = Vec::new();
        think(&mut s);
        let err = load(&[meta(1, 99, 0, 0), empty], &s);
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");

        // Declared repeat count that disagrees with the stream.
        let mut s = Vec::new();
        think(&mut s);
        let err = load(&[meta(1, s.len() as u64, 0, 3), empty], &s);
        assert!(err.to_string().contains("repeat blocks"), "{err}");

        // A window beyond the format maximum is rejected at the header.
        let err = load(&[meta(0, 0, MAX_STREAM_WINDOW + 1, 0), empty], &[]);
        assert!(err.to_string().contains("window"), "{err}");
    }

    #[test]
    fn decompression_bombs_are_rejected_by_the_buffered_decoder() {
        // A few file bytes declaring billions of ops must be a clean error
        // from `Trace::load` (pointing at streaming replay), not an OOM.
        let declared = MAX_BUFFERED_OPS + 1;
        let mut s = Vec::new();
        s.push(codec::OP_THINK);
        write_varint(&mut s, 1);
        s.push(OP_REPEAT);
        write_varint(&mut s, 1);
        write_varint(&mut s, declared - 1);
        let file = frame_v2(
            &[
                StreamMeta {
                    ops: declared,
                    bytes: s.len() as u64,
                    window: 1,
                    repeats: 1,
                },
                StreamMeta {
                    ops: 0,
                    bytes: 0,
                    window: 0,
                    repeats: 0,
                },
            ],
            &s,
        );
        let err = load_bytes(&file).unwrap_err();
        assert!(err.to_string().contains("cap"), "{err}");
        assert!(err.to_string().contains("StreamingTrace"), "{err}");
        // The streaming opener, whose costs are bounded by file size (the
        // repeat expands virtually), validates the same file happily.
        let path = std::env::temp_dir().join(format!("ltp-bomb-{}.ltrace", std::process::id()));
        std::fs::write(&path, &file).unwrap();
        let opened = StreamingTrace::open(&path).expect("bombs stream fine");
        assert_eq!(opened.total_ops(), declared);
        assert_eq!(opened.repeat_blocks(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_file_changed_after_open_is_an_error_not_a_panic() {
        let trace = Trace::record(Benchmark::Em3d, &WorkloadParams::quick(3, 2));
        let path = std::env::temp_dir().join(format!("ltp-changed-{}.ltrace", std::process::id()));
        trace.save(&path).unwrap();
        let opened = Arc::new(StreamingTrace::open(&path).unwrap());
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = Trace::drain(&opened).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        let err = StreamingTrace::scan_stats(&opened).unwrap_err();
        assert!(matches!(err, TraceError::Corrupt(_)), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v1_and_v2_decode_identically_for_every_benchmark_sample() {
        let params = WorkloadParams::quick(3, 3);
        for benchmark in [Benchmark::Em3d, Benchmark::Barnes, Benchmark::Appbt] {
            let trace = Trace::record(benchmark, &params);
            let v1 = load_bytes(&to_bytes_version(&trace, TRACE_VERSION_V1)).unwrap();
            let v2 = load_bytes(&to_bytes_version(&trace, TRACE_VERSION)).unwrap();
            assert_eq!(v1, trace, "{benchmark} v1");
            assert_eq!(v2, trace, "{benchmark} v2");
        }
    }

    #[test]
    fn out_of_range_node_panics() {
        let trace = Arc::new(sample_trace());
        let result = std::panic::catch_unwind(|| TraceProgram::new(Arc::clone(&trace), 9));
        assert!(result.is_err());
    }
}
