//! The `.ltrace` reader: validate a file once, then replay it without
//! materializing it.
//!
//! [`StreamingTrace::open`] makes **one sequential pass** over the file that
//! verifies the checksum, validates every stream's structure, and builds a
//! per-node index (byte offset, op count, repeat window);
//! [`StreamingTraceProgram`] then decodes each node's self-delimiting stream
//! **incrementally** from its own file handle, through a byte-level
//! read-ahead layer that pulls the stream in 64 KiB chunks. Peak memory per
//! node is bounded by the stream's declared repeat window (plus the fixed
//! read-ahead chunk) no matter how many ops the trace holds — replay memory
//! is O(nodes × window), not O(ops). [`super::Trace::load`] is this reader
//! plus a drain into memory.
//!
//! Validation and replay run the same per-stream decode loop
//! (`StreamDecoder`): validation expands repeat blocks virtually, replay
//! re-emits them. A v1 stream is that loop with window 0 and no repeat
//! blocks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufReader, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::program::{Op, Program};
use crate::suite::WorkloadParams;

use super::codec::{
    decode_op, fnv1a_step, note_op, read_varint, DeltaState, IoInput, TraceInput, FNV_OFFSET,
    OP_REPEAT,
};
use super::{Header, StreamMeta, TraceError, TRACE_MAGIC, TRACE_VERSION, TRACE_VERSION_V1};

/// Pushes into a bounded ring (the repeat window); a zero capacity keeps
/// nothing.
fn push_ring(window: &mut VecDeque<Op>, cap: usize, op: Op) {
    if cap == 0 {
        return;
    }
    if window.len() == cap {
        window.pop_front();
    }
    window.push_back(op);
}

/// One stream's decode loop — the only `.ltrace` decoder.
///
/// It decodes literal ops (running the delta chains and their range
/// checks), keeps the last `window` ops in a ring, and checks each repeat
/// block against the stream's metadata. [`StreamingTrace::open`] runs it to
/// the end with [`Self::validate`]; [`StreamingTraceProgram`] pulls ops one
/// by one with [`Self::next_op`]. Both fold repeat expansions into the ring
/// and delta state through [`Self::fold`], so a file `open` accepts decodes
/// identically in replay.
#[derive(Debug)]
struct StreamDecoder<I> {
    input: I,
    node: u16,
    meta: StreamMeta,
    state: DeltaState,
    /// Ops covered by the items decoded so far (a repeat block counts its
    /// whole expansion).
    decoded: u64,
    /// Repeat blocks decoded so far (checked against the declared count).
    repeats_seen: u64,
    /// The last `meta.window` ops, as of the last fold.
    window: VecDeque<Op>,
    /// The body of the latest repeat block.
    body: Vec<Op>,
    /// Ops of the latest expansion not yet folded into `window`/`state`.
    unfolded: u64,
    /// Replay only: ops of the current expansion still to emit, and the
    /// body position of the next one.
    pending: u64,
    body_pos: usize,
    peak_buffered: usize,
}

impl<I: TraceInput> StreamDecoder<I> {
    fn new(input: I, node: u16, meta: StreamMeta) -> Self {
        StreamDecoder {
            input,
            node,
            meta,
            state: DeltaState::new(),
            decoded: 0,
            repeats_seen: 0,
            window: VecDeque::with_capacity(meta.window as usize),
            body: Vec::new(),
            unfolded: 0,
            pending: 0,
            body_pos: 0,
            peak_buffered: 0,
        }
    }

    /// Decodes one item: a literal op (returned) or a repeat block, which
    /// returns `None` and leaves its `unfolded` expansion in `body`.
    fn step(&mut self) -> Result<Option<Op>, TraceError> {
        let opcode = self.input.byte("opcode")?;
        if opcode == OP_REPEAT {
            let (body, covered) = self.read_repeat()?;
            self.body.clear();
            self.body
                .extend(self.window.iter().skip(self.window.len() - body as usize));
            self.unfolded = covered;
            self.decoded += covered;
            self.peak_buffered = self.peak_buffered.max(self.window.len() + self.body.len());
            return Ok(None);
        }
        let op = decode_op(&mut self.input, &mut self.state, opcode, self.node)?;
        push_ring(&mut self.window, self.meta.window as usize, op);
        self.decoded += 1;
        self.peak_buffered = self.peak_buffered.max(self.window.len());
        Ok(Some(op))
    }

    /// Reads one repeat block's operands and validates them against the
    /// declared metadata and the ops decoded so far; returns `(body,
    /// covered)` where `covered = body × reps` is overflow-checked. A
    /// window-0 stream (every v1 stream) admits no repeat block.
    fn read_repeat(&mut self) -> Result<(u64, u64), TraceError> {
        let (node, decoded, meta) = (self.node, self.decoded, self.meta);
        let body = read_varint(&mut self.input, "repeat body")?;
        let reps = read_varint(&mut self.input, "repeat count")?;
        if body == 0 || reps == 0 {
            return Err(TraceError::Corrupt(format!(
                "node {node}: repeat block with zero body or count"
            )));
        }
        if body > meta.window {
            return Err(TraceError::Corrupt(format!(
                "node {node}: repeat body {body} exceeds the stream's declared \
                 window {}",
                meta.window
            )));
        }
        if body > decoded {
            return Err(TraceError::Corrupt(format!(
                "node {node}: repeat body {body} reaches before the stream's \
                 first op ({decoded} decoded so far)"
            )));
        }
        let covered = body
            .checked_mul(reps)
            .filter(|covered| decoded.checked_add(*covered).is_some_and(|t| t <= meta.ops))
            .ok_or_else(|| {
                TraceError::Corrupt(format!(
                    "node {node}: repeat block overruns the declared op count \
                     ({decoded} + {body}×{reps} > {})",
                    meta.ops
                ))
            })?;
        self.repeats_seen += 1;
        Ok((body, covered))
    }

    /// Folds the latest repeat expansion into the window and delta state.
    ///
    /// The expansion is periodic, so only its final `window` ops (and the
    /// delta-chain values after them) can influence what decodes next.
    /// Walking a stretch of length `k ≡ covered (mod body)`, `k ≥ window`,
    /// reproduces both exactly: O(window + body) work per repeat block
    /// however many ops it covers — which keeps `open` bounded by file size
    /// even when the declared op count is astronomical.
    fn fold(&mut self) {
        if self.unfolded == 0 {
            return;
        }
        let cap = self.meta.window;
        let body = self.body.len() as u64;
        let covered = self.unfolded;
        let full = cap + body;
        let walk = if covered <= full + body {
            covered
        } else {
            full + (covered - full) % body
        };
        for i in 0..walk {
            let op = self.body[(i % body) as usize];
            note_op(&mut self.state, op);
            push_ring(&mut self.window, cap as usize, op);
        }
        self.unfolded = 0;
    }

    /// Decodes the whole stream without emitting it (repeat blocks expand
    /// virtually), leaving `input` just past the stream's last byte.
    fn validate(&mut self) -> Result<(), TraceError> {
        while self.decoded < self.meta.ops {
            self.fold();
            self.step()?;
        }
        Ok(())
    }

    /// The stream's next op (re-emitting repeat expansions), or `None` at
    /// its end.
    #[inline]
    fn next_op(&mut self) -> Result<Option<Op>, TraceError> {
        if self.pending == 0 {
            return self.next_item();
        }
        Ok(Some(self.emit()))
    }

    /// Decodes the next item once the current expansion is spent: a
    /// literal op, or the first op of a new repeat expansion. Kept out of
    /// line so [`Self::next_op`]'s per-op emission path stays small enough
    /// to inline into the replay loop.
    #[inline(never)]
    fn next_item(&mut self) -> Result<Option<Op>, TraceError> {
        self.fold();
        if self.decoded == self.meta.ops {
            return Ok(None);
        }
        if let Some(op) = self.step()? {
            return Ok(Some(op));
        }
        self.pending = self.unfolded;
        self.body_pos = 0;
        Ok(Some(self.emit()))
    }

    /// The next op of the current repeat expansion.
    #[inline]
    fn emit(&mut self) -> Op {
        let op = self.body[self.body_pos];
        self.body_pos += 1;
        if self.body_pos == self.body.len() {
            self.body_pos = 0;
        }
        self.pending -= 1;
        op
    }
}

/// Size of each per-node read-ahead chunk, in bytes. At 1–4 encoded
/// bytes/op one 64 KiB read pulls tens of thousands of ops' worth of bytes
/// into memory at once, and even 256 nodes streaming concurrently cost
/// only 16 MiB of buffers.
const READ_AHEAD_BYTES: usize = 64 * 1024;

/// Byte-level read-ahead over one stream's slice of the trace file — the
/// buffered layer between the file and a per-node decode cursor.
///
/// Bytes are pulled in [`READ_AHEAD_BYTES`] chunks (clamped to the
/// stream's declared length, so a cursor never reads into a neighbouring
/// stream) and served from an in-memory buffer, making the decoder's
/// per-byte path an inline bounds check instead of a [`Read::read`] call
/// per byte. The layer buffers *encoded bytes*, never decoded ops, so the
/// replay memory bound (`peak_buffered_ops() ≤ 2 × window`) is untouched.
#[derive(Debug)]
struct ReadAheadInput {
    file: File,
    /// Encoded stream bytes not yet pulled into the buffer.
    left: u64,
    buf: Vec<u8>,
    pos: usize,
}

impl ReadAheadInput {
    /// Seeks `file` to the stream's first byte; `bytes` is the stream's
    /// declared encoded length.
    fn new(mut file: File, offset: u64, bytes: u64) -> io::Result<ReadAheadInput> {
        file.seek(SeekFrom::Start(offset))?;
        Ok(ReadAheadInput {
            file,
            left: bytes,
            buf: Vec::new(),
            pos: 0,
        })
    }

    /// Refills the chunk buffer with the next slice of the stream; the
    /// buffer stays empty only when the stream is spent (or the file was
    /// truncated behind our back — the caller reports that as corruption).
    fn refill(&mut self) -> io::Result<()> {
        let want = self.left.min(READ_AHEAD_BYTES as u64) as usize;
        self.buf.resize(want, 0);
        self.pos = 0;
        let mut filled = 0;
        while filled < want {
            match self.file.read(&mut self.buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.buf.truncate(filled);
        self.left -= filled as u64;
        Ok(())
    }
}

impl TraceInput for ReadAheadInput {
    fn byte(&mut self, what: &str) -> Result<u8, TraceError> {
        if let Some(&b) = self.buf.get(self.pos) {
            self.pos += 1;
            return Ok(b);
        }
        self.refill()?;
        let Some(&b) = self.buf.get(self.pos) else {
            return Err(TraceError::Corrupt(format!(
                "truncated while reading {what}"
            )));
        };
        self.pos += 1;
        Ok(b)
    }
}

/// One node's entry in the file index built by [`StreamingTrace::open`].
#[derive(Debug, Clone, Copy)]
struct StreamIndex {
    /// Declared stream metadata (ops, bytes, window, repeats). For v1
    /// files, reconstructed by the validation scan (window and repeats are
    /// always 0).
    meta: StreamMeta,
    /// Absolute file offset of the stream's first item.
    offset: u64,
}

/// A validated, indexed `.ltrace` file, replayable without materialization.
///
/// Opening performs a full single-pass validation (magic, version,
/// checksum, header, and the structure of every stream), so replay can
/// trust the bytes it decodes later; see [`StreamingTrace::open`].
///
/// # Examples
///
/// Record, save, and replay a benchmark through the streaming path; the
/// streamed ops are exactly the recorded ops:
///
/// ```
/// use std::sync::Arc;
///
/// use ltp_workloads::{collect_ops, Benchmark, StreamingTrace, Trace, WorkloadParams};
///
/// let params = WorkloadParams::quick(2, 3);
/// let trace = Trace::record(Benchmark::Tomcatv, &params);
/// let path = std::env::temp_dir().join(format!("ltp-doc-{}.ltrace", std::process::id()));
/// trace.save(&path).unwrap();
///
/// let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
/// assert_eq!(streaming.name(), "tomcatv");
/// assert_eq!(streaming.total_ops(), trace.total_ops());
///
/// let mut programs = StreamingTrace::programs(&streaming).unwrap();
/// for (node, program) in programs.iter_mut().enumerate() {
///     assert_eq!(collect_ops(program.as_mut()), trace.streams()[node]);
/// }
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct StreamingTrace {
    path: PathBuf,
    version: u8,
    name: String,
    workload: WorkloadParams,
    streams: Vec<StreamIndex>,
    file_bytes: u64,
}

impl StreamingTrace {
    /// Opens and validates a trace file for streaming replay.
    ///
    /// This makes one buffered sequential pass over the whole file —
    /// verifying the magic, version, FNV-1a checksum, header, and the full
    /// validity of every stream: framing, opcodes, repeat-block bounds,
    /// declared byte/op/repeat counts, **and** operand values (the delta
    /// chains run during the scan, so out-of-range PCs and barrier ids are
    /// rejected here). A file `open` accepts cannot fail replay unless it
    /// changes on disk afterwards. When the checksum does not match, that
    /// is the error reported, whatever structural damage it caused.
    ///
    /// Memory stays O(nodes + window) and no ops are materialized; repeat
    /// blocks are expanded *virtually* (O(window + body) scan work each,
    /// however many ops they cover), so opening cost is bounded by file
    /// size even for files whose declared op count is astronomical.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first problem found: bad magic,
    /// unsupported version, I/O failure, or a precise corruption diagnosis
    /// (truncation, checksum mismatch, unknown opcode, malformed varint,
    /// invalid repeat block, …).
    pub fn open<P: AsRef<Path>>(path: P) -> Result<StreamingTrace, TraceError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_bytes = file.metadata()?.len();
        let mut reader = BufReader::new(file);

        let mut head = [0u8; 8];
        if let Err(e) = reader.read_exact(&mut head) {
            return if e.kind() == io::ErrorKind::UnexpectedEof {
                Err(TraceError::BadMagic)
            } else {
                Err(TraceError::Io(e))
            };
        }
        if head[..7] != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = head[7];
        if !(TRACE_VERSION_V1..=TRACE_VERSION).contains(&version) {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let Some(body_len) = file_bytes.checked_sub(8 + 8) else {
            return Err(TraceError::Corrupt("missing checksum trailer".to_string()));
        };

        // Everything between the version byte and the trailer is hashed as
        // it is consumed; `IoInput::consumed` gives offsets within the body.
        let mut input = IoInput::new(HashingReader::new(reader.by_ref().take(body_len)));
        let scanned = match scan_body(&mut input, version, body_len) {
            Err(TraceError::Io(e)) => return Err(TraceError::Io(e)),
            scanned => scanned,
        };
        // Hash whatever a failed scan left unread: a damaged file reports
        // its checksum mismatch, not the structural symptom it caused.
        let mut rest = input.into_inner();
        io::copy(&mut rest, &mut io::sink())?;
        let computed = rest.finish();

        let mut trailer = [0u8; 8];
        reader.read_exact(&mut trailer).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                TraceError::Corrupt("missing checksum trailer".to_string())
            } else {
                TraceError::Io(e)
            }
        })?;
        let stored = u64::from_le_bytes(trailer);
        if stored != computed {
            return Err(TraceError::Corrupt(format!(
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            )));
        }
        let (header, streams) = scanned?;

        Ok(StreamingTrace {
            path,
            version,
            name: header.name,
            workload: header.workload,
            streams,
            file_bytes,
        })
    }

    /// The path the trace streams from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The file's format version (1 or 2).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// The workload name recorded in the header.
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

    /// Total operations across every node (after repeat expansion).
    pub fn total_ops(&self) -> u64 {
        self.streams.iter().map(|s| s.meta.ops).sum()
    }

    /// Operations in `node`'s stream.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the trace's geometry.
    pub fn stream_ops(&self, node: u16) -> u64 {
        self.streams[usize::from(node)].meta.ops
    }

    /// Total repeat blocks across every stream (0 for v1 files).
    pub fn repeat_blocks(&self) -> u64 {
        self.streams.iter().map(|s| s.meta.repeats).sum()
    }

    /// The largest per-stream repeat window in the file — the most any
    /// node's streaming decoder will ever buffer, in ops.
    pub fn max_window(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.meta.window)
            .max()
            .unwrap_or(0)
    }

    /// Encoded file size in bytes (magic, header, streams, and trailer).
    pub fn file_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Builds one incremental replay [`Program`] per node. Each program
    /// holds its own file handle and a window-bounded decode state.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file can no longer be opened.
    pub fn programs(trace: &Arc<StreamingTrace>) -> Result<Vec<Box<dyn Program>>, TraceError> {
        (0..trace.nodes())
            .map(|node| {
                StreamingTraceProgram::new(Arc::clone(trace), node)
                    .map(|p| Box::new(p) as Box<dyn Program>)
            })
            .collect()
    }

    /// Streams every node's ops once (node by node, O(window) memory) to
    /// produce the op-kind histogram and the exact byte size the same ops
    /// would occupy in format v1 — the heavy half of `trace-info`, without
    /// ever materializing the trace.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the file can no longer be opened or has
    /// changed on disk since it was opened.
    pub fn scan_stats(trace: &Arc<StreamingTrace>) -> Result<TraceScanStats, TraceError> {
        let mut counts = [0u64; 8];
        // v1 frame: magic + version + header + per-stream (count + ops) +
        // checksum trailer.
        let mut scratch = Vec::new();
        Header {
            name: trace.name.clone(),
            workload: trace.workload,
        }
        .encode(&mut scratch);
        let mut v1_bytes = (TRACE_MAGIC.len() + 1 + scratch.len() + 8) as u64;
        for node in 0..trace.nodes() {
            scratch.clear();
            super::codec::write_varint(&mut scratch, trace.stream_ops(node));
            v1_bytes += scratch.len() as u64;
            let mut state = DeltaState::new();
            let mut program = StreamingTraceProgram::new(Arc::clone(trace), node)?;
            while let Some(op) = program.try_next_op()? {
                counts[super::op_kind_slot(&op)] += 1;
                scratch.clear();
                super::codec::encode_op(&mut scratch, &mut state, op);
                v1_bytes += scratch.len() as u64;
            }
        }
        Ok(TraceScanStats {
            histogram: std::array::from_fn(|i| (super::OP_KIND_NAMES[i], counts[i])),
            v1_bytes,
        })
    }
}

/// The validation pass of [`StreamingTrace::open`] over the checksummed
/// body: header, per-stream metadata, then every stream through its
/// decoder. Returns the header and the per-node index.
fn scan_body<R: Read>(
    input: &mut IoInput<R>,
    version: u8,
    body_len: u64,
) -> Result<(Header, Vec<StreamIndex>), TraceError> {
    let header = Header::parse(input)?;
    let nodes = header.workload.nodes;
    // v2 declares every stream's metadata up front; v1 prefixes each stream
    // with its op count and has neither repeat blocks nor a window.
    let declared: Vec<Option<StreamMeta>> = if version == TRACE_VERSION_V1 {
        vec![None; usize::from(nodes)]
    } else {
        (0..nodes)
            .map(|node| StreamMeta::parse(input, node).map(Some))
            .collect::<Result<_, _>>()?
    };
    let mut streams = Vec::with_capacity(usize::from(nodes));
    for (node, declared) in (0..nodes).zip(declared) {
        let mut meta = match declared {
            Some(meta) => meta,
            None => StreamMeta {
                ops: read_varint(input, "op count")?,
                bytes: 0,
                window: 0,
                repeats: 0,
            },
        };
        let start = input.consumed();
        let mut decoder = StreamDecoder::new(&mut *input, node, meta);
        decoder.validate()?;
        let repeats_seen = decoder.repeats_seen;
        let consumed = input.consumed() - start;
        if declared.is_none() {
            meta.bytes = consumed;
        }
        if consumed != meta.bytes {
            return Err(TraceError::Corrupt(format!(
                "node {node}: stream used {consumed} bytes but declared {}",
                meta.bytes
            )));
        }
        if repeats_seen != meta.repeats {
            return Err(TraceError::Corrupt(format!(
                "node {node}: stream holds {repeats_seen} repeat blocks but \
                 declared {}",
                meta.repeats
            )));
        }
        streams.push(StreamIndex {
            meta,
            offset: 8 + start,
        });
    }
    if input.consumed() != body_len {
        return Err(TraceError::Corrupt(format!(
            "{} trailing bytes after the last stream",
            body_len - input.consumed()
        )));
    }
    Ok((header, streams))
}

/// What [`StreamingTrace::scan_stats`] computes in one bounded-memory pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceScanStats {
    /// Op counts by kind, in [`super::Trace::op_histogram`]'s fixed order.
    pub histogram: [(&'static str, u64); 8],
    /// Exact encoded size of the same trace in format v1, in bytes — the
    /// denominator of the "how much did v2 save" comparison.
    pub v1_bytes: u64,
}

/// Replays one node's stream of a [`StreamingTrace`], decoding
/// incrementally from the file.
///
/// The program keeps a sliding window of the last `window` decoded ops
/// (the stream's declared repeat window) so repeat blocks can re-emit
/// them; nothing else of the stream is retained. File bytes arrive
/// through a per-cursor `ReadAheadInput` chunk buffer, so draining an op
/// costs an inline decode, not a `Read` call per encoded byte.
/// [`StreamingTraceProgram::peak_buffered_ops`] reports the high-water
/// mark, which tests assert against [`StreamingTraceProgram::window_ops`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use ltp_workloads::{collect_ops, Benchmark, StreamingTrace, StreamingTraceProgram, Trace,
///                     WorkloadParams};
///
/// let params = WorkloadParams::quick(2, 4);
/// let trace = Trace::record(Benchmark::Em3d, &params);
/// let path = std::env::temp_dir().join(format!("ltp-doc-node-{}.ltrace", std::process::id()));
/// trace.save(&path).unwrap();
///
/// let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
/// let mut program = StreamingTraceProgram::new(Arc::clone(&streaming), 1).unwrap();
/// assert_eq!(collect_ops(&mut program), trace.streams()[1]);
/// // Decode memory stayed within the declared repeat window.
/// assert!(program.peak_buffered_ops() <= 2 * program.window_ops().max(1));
/// # std::fs::remove_file(&path).unwrap();
/// ```
#[derive(Debug)]
pub struct StreamingTraceProgram {
    trace: Arc<StreamingTrace>,
    decoder: StreamDecoder<ReadAheadInput>,
}

impl StreamingTraceProgram {
    /// Opens an incremental replay cursor over `node`'s stream, seeking a
    /// fresh file handle to the stream's indexed offset.
    ///
    /// # Panics
    ///
    /// Panics if `node` is outside the trace's geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] if the file cannot be reopened.
    pub fn new(trace: Arc<StreamingTrace>, node: u16) -> Result<StreamingTraceProgram, TraceError> {
        assert!(
            node < trace.nodes(),
            "trace `{}` has {} nodes, no node {node}",
            trace.name(),
            trace.nodes()
        );
        let index = trace.streams[usize::from(node)];
        let file = File::open(&trace.path)?;
        let input = ReadAheadInput::new(file, index.offset, index.meta.bytes)?;
        Ok(StreamingTraceProgram {
            trace,
            decoder: StreamDecoder::new(input, node, index.meta),
        })
    }

    /// The stream's declared repeat window in ops (0 for v1 streams): the
    /// bound on what this program buffers.
    pub fn window_ops(&self) -> usize {
        self.decoder.meta.window as usize
    }

    /// High-water mark of ops buffered so far (window plus any in-flight
    /// repeat body) — what the memory-bound tests assert on.
    pub fn peak_buffered_ops(&self) -> usize {
        self.decoder.peak_buffered
    }

    /// The next recorded op, or a [`TraceError`] if the file changed on
    /// disk since [`StreamingTrace::open`] validated it.
    pub(crate) fn try_next_op(&mut self) -> Result<Option<Op>, TraceError> {
        self.decoder.next_op()
    }
}

impl Program for StreamingTraceProgram {
    fn len_hint(&self) -> Option<u64> {
        Some(self.decoder.meta.ops)
    }

    /// Emits the next recorded op, decoding from the file as needed.
    ///
    /// # Panics
    ///
    /// Panics if the file fails mid-replay — [`StreamingTrace::open`]
    /// validated the whole file, so this means the file was truncated,
    /// rewritten, or made unreadable after it was opened.
    fn next_op(&mut self) -> Option<Op> {
        self.try_next_op().unwrap_or_else(|e| {
            panic!(
                "trace `{}` failed mid-stream on node {} (file changed since open?): {e}",
                self.trace.name(),
                self.decoder.node
            )
        })
    }
}

/// Hashes every byte it passes through with FNV-1a 64 — how the single
/// validation pass of [`StreamingTrace::open`] computes the body checksum
/// without a second read.
#[derive(Debug)]
struct HashingReader<R> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> Self {
        HashingReader {
            inner,
            hash: FNV_OFFSET,
        }
    }

    fn finish(self) -> u64 {
        self.hash
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        for &b in &buf[..n] {
            self.hash = fnv1a_step(self.hash, b);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::collect_ops;
    use crate::suite::Benchmark;
    use crate::trace::{load_bytes, Trace, TraceWriter};

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ltp-stream-{}-{tag}.ltrace", std::process::id()))
    }

    #[test]
    fn streaming_matches_buffered_for_both_versions() {
        let params = WorkloadParams::quick(3, 4);
        let trace = Trace::record(Benchmark::Ocean, &params);
        for version in [TRACE_VERSION_V1, TRACE_VERSION] {
            let path = scratch(&format!("both-v{version}"));
            let file = std::fs::File::create(&path).unwrap();
            trace
                .write_to_version(std::io::BufWriter::new(file), version)
                .unwrap();
            let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
            assert_eq!(streaming.version(), version);
            assert_eq!(streaming.name(), "ocean");
            assert_eq!(streaming.workload(), params);
            assert_eq!(streaming.total_ops(), trace.total_ops());
            let mut programs = StreamingTrace::programs(&streaming).unwrap();
            for (node, program) in programs.iter_mut().enumerate() {
                assert_eq!(
                    collect_ops(program.as_mut()),
                    trace.streams()[node],
                    "v{version} node {node}"
                );
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn peak_memory_is_bounded_by_the_window() {
        // A long loop must replay within ~2 windows (ring + in-flight
        // body), not O(ops).
        let mut writer = TraceWriter::new("loop", WorkloadParams::quick(2, 1));
        for _ in 0..10_000 {
            writer.push(0, Op::Think(3));
            writer.push(
                0,
                Op::Read {
                    pc: ltp_core::Pc::new(0x10),
                    block: ltp_core::BlockId::new(5),
                },
            );
        }
        writer.push(1, Op::Think(1));
        writer.push(1, Op::Think(1));
        let trace = writer.finish();
        let path = scratch("window");
        trace.save(&path).unwrap();
        let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
        assert!(streaming.repeat_blocks() > 0, "loop detected");
        let mut program = StreamingTraceProgram::new(Arc::clone(&streaming), 0).unwrap();
        let ops = collect_ops(&mut program);
        assert_eq!(ops, trace.streams()[0]);
        let window = program.window_ops();
        assert!((1..=4096).contains(&window), "window {window}");
        assert!(
            program.peak_buffered_ops() <= 2 * window,
            "peak {} vs window {window}",
            program.peak_buffered_ops()
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn out_of_range_operand_values_are_rejected_at_open() {
        // A structurally valid, correctly-checksummed v1 file whose delta
        // chains reconstruct a PC beyond u32 must fail at open, never
        // mid-replay.
        use super::super::codec::{fnv1a, write_varint, zigzag, OP_READ};
        let mut body = Vec::new();
        write_varint(&mut body, 1);
        body.push(b'x');
        write_varint(&mut body, 2); // nodes
        write_varint(&mut body, 0); // seed
        body.push(0); // iters_flag
        write_varint(&mut body, 1); // node 0: one op
        body.push(OP_READ);
        write_varint(&mut body, zigzag(1 << 33)); // pc delta beyond u32
        write_varint(&mut body, zigzag(0));
        write_varint(&mut body, 0); // node 1: empty
        let mut file = Vec::new();
        file.extend_from_slice(&TRACE_MAGIC);
        file.push(TRACE_VERSION_V1);
        file.extend_from_slice(&body);
        file.extend_from_slice(&fnv1a(&body).to_le_bytes());

        let err = load_bytes(&file).unwrap_err();
        assert!(err.to_string().contains("exceeds u32"), "{err}");
    }

    #[test]
    fn out_of_range_node_panics() {
        let params = WorkloadParams::quick(2, 1);
        let trace = Trace::record(Benchmark::Em3d, &params);
        let path = scratch("node-range");
        trace.save(&path).unwrap();
        let streaming = Arc::new(StreamingTrace::open(&path).unwrap());
        let result = std::panic::catch_unwind(|| {
            StreamingTraceProgram::new(Arc::clone(&streaming), 7).unwrap()
        });
        assert!(result.is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
