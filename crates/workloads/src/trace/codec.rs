//! Shared byte-level primitives of the `.ltrace` codecs.
//!
//! The writer and the one reader ([`super::stream`]) of both format
//! versions are built from the pieces here: LEB128 varints, ZigZag mapping,
//! the per-stream delta state, the opcode table, and a [`TraceInput`]
//! abstraction that lets the same decode functions run over the validation
//! pass's hashing reader and each replay cursor's read-ahead buffer.

use std::io::{self, Read};

use ltp_core::{BlockId, Pc};

use crate::program::{Lock, Op};

use super::TraceError;

// ---- opcode table (shared by v1 and v2) -----------------------------------

pub(crate) const OP_THINK: u8 = 0x00;
pub(crate) const OP_READ: u8 = 0x01;
pub(crate) const OP_WRITE: u8 = 0x02;
pub(crate) const OP_LOCK_EXPOSED: u8 = 0x03;
pub(crate) const OP_LOCK_ADHOC: u8 = 0x04;
pub(crate) const OP_UNLOCK_EXPOSED: u8 = 0x05;
pub(crate) const OP_UNLOCK_ADHOC: u8 = 0x06;
pub(crate) const OP_BARRIER: u8 = 0x07;
pub(crate) const OP_FLAG_SET: u8 = 0x08;
pub(crate) const OP_FLAG_WAIT: u8 = 0x09;
/// Version-2 repeat block: `0x0A body:varint reps:varint` — "repeat the
/// previous `body` decoded operations `reps` more times".
pub(crate) const OP_REPEAT: u8 = 0x0A;

// ---- input abstraction ----------------------------------------------------

/// A byte source the decoder reads from.
///
/// Implemented by [`IoInput`] (the validation pass) and the per-node
/// read-ahead buffer of streaming replay. All decode errors are
/// [`TraceError`]s naming what was being read when the source ran dry.
pub(crate) trait TraceInput {
    /// Reads one byte, or reports truncation naming `what`.
    fn byte(&mut self, what: &str) -> Result<u8, TraceError>;

    /// Reads `len` bytes (the header's name). A declared length beyond the
    /// source fails as truncation once the source runs dry.
    fn take(&mut self, len: usize, what: &str) -> Result<Vec<u8>, TraceError> {
        let mut out = Vec::with_capacity(len.min(1 << 16));
        for _ in 0..len {
            out.push(self.byte(what)?);
        }
        Ok(out)
    }
}

impl<I: TraceInput + ?Sized> TraceInput for &mut I {
    fn byte(&mut self, what: &str) -> Result<u8, TraceError> {
        (**self).byte(what)
    }
}

/// Incremental source over any [`Read`], counting consumed bytes.
///
/// The [`super::stream::StreamingTrace::open`] validation scan reads
/// through this; `consumed` is what turns a sequential scan into the
/// per-stream byte offsets of the file index.
#[derive(Debug)]
pub(crate) struct IoInput<R: Read> {
    inner: R,
    consumed: u64,
}

impl<R: Read> IoInput<R> {
    pub(crate) fn new(inner: R) -> Self {
        IoInput { inner, consumed: 0 }
    }

    /// Bytes read since construction.
    pub(crate) fn consumed(&self) -> u64 {
        self.consumed
    }

    /// Recovers the wrapped reader.
    pub(crate) fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> TraceInput for IoInput<R> {
    fn byte(&mut self, what: &str) -> Result<u8, TraceError> {
        let mut buf = [0u8; 1];
        loop {
            match self.inner.read(&mut buf) {
                Ok(0) => {
                    return Err(TraceError::Corrupt(format!(
                        "truncated while reading {what}"
                    )))
                }
                Ok(_) => {
                    self.consumed += 1;
                    return Ok(buf[0]);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceError::Io(e)),
            }
        }
    }
}

// ---- varint / zigzag ------------------------------------------------------

/// LEB128 unsigned varint.
pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint, rejecting encodings longer than 64 bits.
pub(crate) fn read_varint<I: TraceInput + ?Sized>(
    input: &mut I,
    what: &str,
) -> Result<u64, TraceError> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = input.byte(what)?;
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt(format!("varint overflow in {what}")));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt(format!("varint too long in {what}")));
        }
    }
}

/// ZigZag-maps a signed delta so small magnitudes stay small unsigned.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// FNV-1a 64-bit (cheap whole-file corruption detection).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash = fnv1a_step(hash, b);
    }
    hash
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a folding step (used byte-at-a-time by the streaming scan).
pub(crate) fn fnv1a_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

// ---- delta state ----------------------------------------------------------

/// Per-stream running-previous values for delta encoding. PCs share one
/// chain across every PC-carrying operand (including the three PCs of a
/// lock), block ids another. Both reset to 0 at the start of each stream.
#[derive(Debug)]
pub(crate) struct DeltaState {
    pub(crate) prev_pc: u64,
    pub(crate) prev_block: u64,
}

impl DeltaState {
    pub(crate) fn new() -> Self {
        DeltaState {
            prev_pc: 0,
            prev_block: 0,
        }
    }
}

/// Advances the delta chains over an op whose absolute operands are already
/// known — the decoder's bookkeeping for ops produced by repeat-block
/// expansion rather than literal decoding. Mirrors the operand order of
/// [`encode_op`]: the last PC written for a lock is its release PC.
pub(crate) fn note_op(state: &mut DeltaState, op: Op) {
    match op {
        Op::Think(_) | Op::Barrier(_) => {}
        Op::Read { pc, block }
        | Op::Write { pc, block }
        | Op::FlagSet { pc, block }
        | Op::FlagWait { pc, block } => {
            state.prev_pc = u64::from(pc.value());
            state.prev_block = block.index();
        }
        Op::Lock(lock) | Op::Unlock(lock) => {
            state.prev_block = lock.block.index();
            state.prev_pc = u64::from(lock.release_pc.value());
        }
    }
}

// ---- op encode / decode ---------------------------------------------------

pub(crate) fn encode_op(out: &mut Vec<u8>, state: &mut DeltaState, op: Op) {
    match op {
        Op::Think(cycles) => {
            out.push(OP_THINK);
            write_varint(out, cycles);
        }
        Op::Read { pc, block } => {
            out.push(OP_READ);
            write_pc(out, state, pc);
            write_block(out, state, block);
        }
        Op::Write { pc, block } => {
            out.push(OP_WRITE);
            write_pc(out, state, pc);
            write_block(out, state, block);
        }
        Op::Lock(lock) => {
            out.push(if lock.exposed {
                OP_LOCK_EXPOSED
            } else {
                OP_LOCK_ADHOC
            });
            write_lock(out, state, lock);
        }
        Op::Unlock(lock) => {
            out.push(if lock.exposed {
                OP_UNLOCK_EXPOSED
            } else {
                OP_UNLOCK_ADHOC
            });
            write_lock(out, state, lock);
        }
        Op::Barrier(id) => {
            out.push(OP_BARRIER);
            write_varint(out, u64::from(id));
        }
        Op::FlagSet { pc, block } => {
            out.push(OP_FLAG_SET);
            write_pc(out, state, pc);
            write_block(out, state, block);
        }
        Op::FlagWait { pc, block } => {
            out.push(OP_FLAG_WAIT);
            write_pc(out, state, pc);
            write_block(out, state, block);
        }
    }
}

/// Decodes one literal op given its already-read `opcode`.
pub(crate) fn decode_op<I: TraceInput + ?Sized>(
    input: &mut I,
    state: &mut DeltaState,
    opcode: u8,
    node: u16,
) -> Result<Op, TraceError> {
    Ok(match opcode {
        OP_THINK => Op::Think(read_varint(input, "think cycles")?),
        OP_READ => Op::Read {
            pc: read_pc(input, state)?,
            block: read_block(input, state)?,
        },
        OP_WRITE => Op::Write {
            pc: read_pc(input, state)?,
            block: read_block(input, state)?,
        },
        OP_LOCK_EXPOSED => Op::Lock(read_lock(input, state, true)?),
        OP_LOCK_ADHOC => Op::Lock(read_lock(input, state, false)?),
        OP_UNLOCK_EXPOSED => Op::Unlock(read_lock(input, state, true)?),
        OP_UNLOCK_ADHOC => Op::Unlock(read_lock(input, state, false)?),
        OP_BARRIER => {
            let id = read_varint(input, "barrier id")?;
            Op::Barrier(
                u32::try_from(id)
                    .map_err(|_| TraceError::Corrupt(format!("barrier id {id} exceeds u32")))?,
            )
        }
        OP_FLAG_SET => Op::FlagSet {
            pc: read_pc(input, state)?,
            block: read_block(input, state)?,
        },
        OP_FLAG_WAIT => Op::FlagWait {
            pc: read_pc(input, state)?,
            block: read_block(input, state)?,
        },
        other => {
            return Err(TraceError::Corrupt(format!(
                "unknown opcode {other:#04x} in node {node}'s stream"
            )))
        }
    })
}

fn write_lock(out: &mut Vec<u8>, state: &mut DeltaState, lock: Lock) {
    write_block(out, state, lock.block);
    write_pc(out, state, lock.spin_pc);
    write_pc(out, state, lock.tas_pc);
    write_pc(out, state, lock.release_pc);
}

fn read_lock<I: TraceInput + ?Sized>(
    input: &mut I,
    state: &mut DeltaState,
    exposed: bool,
) -> Result<Lock, TraceError> {
    Ok(Lock {
        block: read_block(input, state)?,
        spin_pc: read_pc(input, state)?,
        tas_pc: read_pc(input, state)?,
        release_pc: read_pc(input, state)?,
        exposed,
    })
}

fn write_pc(out: &mut Vec<u8>, state: &mut DeltaState, pc: Pc) {
    let value = u64::from(pc.value());
    write_varint(out, zigzag(value.wrapping_sub(state.prev_pc) as i64));
    state.prev_pc = value;
}

fn read_pc<I: TraceInput + ?Sized>(
    input: &mut I,
    state: &mut DeltaState,
) -> Result<Pc, TraceError> {
    let delta = unzigzag(read_varint(input, "pc delta")?);
    let value = state.prev_pc.wrapping_add(delta as u64);
    state.prev_pc = value;
    let pc = u32::try_from(value)
        .map_err(|_| TraceError::Corrupt(format!("pc {value:#x} exceeds u32")))?;
    Ok(Pc::new(pc))
}

fn write_block(out: &mut Vec<u8>, state: &mut DeltaState, block: BlockId) {
    let value = block.index();
    write_varint(out, zigzag(value.wrapping_sub(state.prev_block) as i64));
    state.prev_block = value;
}

fn read_block<I: TraceInput + ?Sized>(
    input: &mut I,
    state: &mut DeltaState,
) -> Result<BlockId, TraceError> {
    let delta = unzigzag(read_varint(input, "block delta")?);
    let value = state.prev_block.wrapping_add(delta as u64);
    state.prev_block = value;
    Ok(BlockId::new(value))
}
