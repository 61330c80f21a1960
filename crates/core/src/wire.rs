//! Wire encoding for the distributed (thread-per-party) execution.
//!
//! Fixed, self-describing little formats built on [`bytes`]: every field
//! element is a 32-byte big-endian block, group elements and scalars use
//! the group's fixed-length encodings, and sequences are length-prefixed.
//! This is deliberately simple — the point is that the distributed runner
//! exchanges *real bytes*, not shared memory. Every protocol message has
//! one frame layout (`encode_msg`, `decode_msg`).

use crate::party::{Kind, Msg};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use ppgr_bigint::{BigUint, Fp, FpCtx};
use ppgr_dotprod::{default_field, Round1Message, Round2Message};
use ppgr_elgamal::Ciphertext;
use ppgr_group::{Group, Scalar};
use ppgr_net::Phase;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Bytes per serialized field element.
pub const FIELD_BYTES: usize = 32;

/// Frame tag: an ordinary protocol message follows.
pub const TAG_DATA: u8 = 0x01;

/// Frame tag: an abort notification follows.
pub const TAG_ABORT: u8 = 0x02;

/// Decoding failure.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum WireError {
    /// The bytes do not parse as the expected structure.
    Malformed(&'static str),
    /// A frame decoded cleanly but left bytes unconsumed. Trailing bytes
    /// are rejected, not ignored: a forged frame could otherwise smuggle
    /// garbage past every structural check.
    Trailing(usize),
}

impl WireError {
    fn new(what: &'static str) -> Self {
        WireError::Malformed(what)
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(what) => write!(f, "malformed wire message: {what}"),
            WireError::Trailing(n) => {
                write!(f, "malformed wire message: {n} unconsumed trailing byte(s)")
            }
        }
    }
}

impl Error for WireError {}

/// Why a party aborted the session — carried inside an abort frame so
/// survivors can adopt the original blame instead of blaming whoever
/// relayed the news.
///
/// The frame deliberately carries nothing beyond liveness facts: who is
/// blamed, which phase, what kind of failure. No protocol state, shares,
/// or partial results ever ride on it.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum AbortKind {
    /// The blamed party sent nothing before its phase deadline.
    Timeout,
    /// The blamed party's channels tore down.
    Disconnected,
    /// The blamed party presented a proof that failed verification.
    ProofRejected,
    /// The blamed party sent bytes that do not decode as the expected
    /// message.
    Protocol,
}

impl AbortKind {
    fn to_u8(self) -> u8 {
        match self {
            AbortKind::Timeout => 0,
            AbortKind::Disconnected => 1,
            AbortKind::ProofRejected => 2,
            AbortKind::Protocol => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => AbortKind::Timeout,
            1 => AbortKind::Disconnected,
            2 => AbortKind::ProofRejected,
            3 => AbortKind::Protocol,
            _ => return Err(WireError::new("unknown abort kind")),
        })
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AbortKind::Timeout => "timeout",
            AbortKind::Disconnected => "disconnect",
            AbortKind::ProofRejected => "rejected proof",
            AbortKind::Protocol => "protocol violation",
        };
        f.write_str(name)
    }
}

fn phase_to_u8(phase: Phase) -> u8 {
    match phase {
        Phase::Gain => 0,
        Phase::KeyGen => 1,
        Phase::Encrypt => 2,
        Phase::Compare => 3,
        Phase::Hop => 4,
        Phase::Submit => 5,
    }
}

fn phase_from_u8(v: u8) -> Result<Phase, WireError> {
    Phase::ALL
        .get(v as usize)
        .copied()
        .ok_or(WireError::new("unknown phase"))
}

/// The poison pill a failing party broadcasts before unwinding, so every
/// survivor exits within one deadline instead of a cascade of timeouts.
///
/// `reporter` names the *original accuser* — the party that observed the
/// failure first-hand. Relays forward frames verbatim, so the reporter
/// survives any number of hops; an accused-but-alive party uses it to
/// point back at whoever framed it. Nothing authenticates the field (the
/// frames are unsigned), which is exactly why hearsay derived from a
/// frame ranks below first-hand evidence in consensus blame.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub struct AbortFrame {
    /// The party held responsible for the failure.
    pub blamed: usize,
    /// The phase in which the failure was observed.
    pub phase: Phase,
    /// What kind of failure was observed.
    pub kind: AbortKind,
    /// The party that originated the accusation (not the relayer).
    pub reporter: usize,
}

impl AbortFrame {
    /// Encoded size, tag included.
    pub const ENCODED_LEN: usize = 11;

    /// Encodes the frame, tag included.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::ENCODED_LEN);
        buf.put_u8(TAG_ABORT);
        buf.put_u32(self.blamed as u32);
        buf.put_u8(phase_to_u8(self.phase));
        buf.put_u8(self.kind.to_u8());
        buf.put_u32(self.reporter as u32);
        buf.freeze()
    }
}

/// A received distributed-runner message, tag decoded.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum Frame {
    /// An ordinary protocol message; the payload has the tag stripped.
    Data(Bytes),
    /// A peer is telling us the session is dead.
    Abort(AbortFrame),
}

/// Splits a raw mesh message into its tag and payload.
///
/// # Errors
///
/// [`WireError`] on an empty buffer, an unknown tag, or a malformed abort
/// frame.
pub fn parse_frame(bytes: &Bytes) -> Result<Frame, WireError> {
    match bytes.first() {
        None => Err(WireError::new("empty frame")),
        Some(&TAG_DATA) => Ok(Frame::Data(bytes.slice(1..))),
        Some(&TAG_ABORT) => {
            let mut r = Reader::new(bytes.slice(1..));
            r.need(AbortFrame::ENCODED_LEN - 1, "truncated abort frame")?;
            let blamed = r.buf.get_u32() as usize;
            let phase = phase_from_u8(r.buf.get_u8())?;
            let kind = AbortKind::from_u8(r.buf.get_u8())?;
            let reporter = r.buf.get_u32() as usize;
            r.done()?;
            Ok(Frame::Abort(AbortFrame {
                blamed,
                phase,
                kind,
                reporter,
            }))
        }
        Some(_) => Err(WireError::new("unknown frame tag")),
    }
}

/// Serializer over a growable buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer whose output is a data frame: the buffer starts
    /// with [`TAG_DATA`], and [`finish`](Self::finish) yields bytes that
    /// [`parse_frame`] reads back as [`Frame::Data`].
    pub fn framed() -> Self {
        let mut w = Self::new();
        w.buf.put_u8(TAG_DATA);
        w
    }

    /// Appends a `u32` length/count.
    ///
    /// # Errors
    ///
    /// Fails if `len` exceeds `u32::MAX` (no protocol message is remotely
    /// that large; a count this big means the caller is corrupt).
    pub fn put_len(&mut self, len: usize) -> Result<(), WireError> {
        let len = u32::try_from(len).map_err(|_| WireError::new("length exceeds u32"))?;
        self.buf.put_u32(len);
        Ok(())
    }

    /// Appends one field element (32-byte big-endian).
    pub fn put_fp(&mut self, v: &Fp) {
        let bytes = v.value().to_bytes_be();
        assert!(bytes.len() <= FIELD_BYTES, "field element exceeds 32 bytes");
        self.buf.put_bytes(0, FIELD_BYTES - bytes.len());
        self.buf.put_slice(&bytes);
    }

    /// Appends a slice of field elements, length-prefixed.
    ///
    /// # Errors
    ///
    /// Fails if the element count does not fit the `u32` prefix.
    pub fn put_fp_vec(&mut self, vs: &[Fp]) -> Result<(), WireError> {
        self.put_len(vs.len())?;
        for v in vs {
            self.put_fp(v);
        }
        Ok(())
    }

    /// Appends a group element (fixed length for the group).
    pub fn put_element(&mut self, group: &Group, e: &ppgr_group::Element) {
        self.buf.put_slice(&group.encode(e));
    }

    /// Appends a scalar, padded to the group's scalar width.
    pub fn put_scalar(&mut self, group: &Group, s: &Scalar) {
        let width = group.order().bits().div_ceil(8);
        let bytes = s.value().to_bytes_be();
        assert!(bytes.len() <= width);
        self.buf.put_bytes(0, width - bytes.len());
        self.buf.put_slice(&bytes);
    }

    /// Appends a ciphertext (two group elements).
    pub fn put_ciphertext(&mut self, group: &Group, ct: &Ciphertext) {
        self.put_element(group, &ct.alpha);
        self.put_element(group, &ct.beta);
    }

    /// Appends a ciphertext vector, length-prefixed.
    ///
    /// # Errors
    ///
    /// Fails if the ciphertext count does not fit the `u32` prefix.
    pub fn put_ciphertexts(&mut self, group: &Group, cts: &[Ciphertext]) -> Result<(), WireError> {
        self.put_len(cts.len())?;
        for ct in cts {
            self.put_ciphertext(group, ct);
        }
        Ok(())
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Appends raw bytes with no length prefix (fixed-width payloads such
    /// as the keygen echo digests; the reader must know the width).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.put_slice(bytes);
    }

    /// Finishes, returning the frozen byte buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }
}

/// Deserializer over a received byte buffer.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Wraps received bytes.
    pub fn new(bytes: Bytes) -> Self {
        Reader { buf: bytes }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), WireError> {
        if self.buf.remaining() < n {
            return Err(WireError::new(what));
        }
        Ok(())
    }

    /// Reads a `u32` length/count.
    ///
    /// The claimed count is clamped against the bytes actually present in
    /// the frame: every length-prefixed element occupies at least one byte,
    /// so a count exceeding the remaining payload is malformed on its face.
    /// Without this bound an attacker-claimed count drives
    /// `Vec::with_capacity` in the decoders — a 4-byte frame asking the
    /// receiver to allocate gigabytes.
    #[allow(clippy::len_without_is_empty)] // decodes a length prefix, not a container size
    pub fn len(&mut self) -> Result<usize, WireError> {
        self.need(4, "truncated length")?;
        let n = self.buf.get_u32() as usize;
        if n > self.buf.remaining() {
            return Err(WireError::new("length prefix exceeds frame"));
        }
        Ok(n)
    }

    /// Reads one field element.
    pub fn fp(&mut self, field: &Arc<FpCtx>) -> Result<Fp, WireError> {
        self.need(FIELD_BYTES, "truncated field element")?;
        let mut raw = [0u8; FIELD_BYTES];
        self.buf.copy_to_slice(&mut raw);
        let v = BigUint::from_bytes_be(&raw);
        if &v >= field.modulus() {
            return Err(WireError::new("field element out of range"));
        }
        Ok(field.element(v))
    }

    /// Reads a length-prefixed field-element vector.
    pub fn fp_vec(&mut self, field: &Arc<FpCtx>) -> Result<Vec<Fp>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.fp(field)).collect()
    }

    /// Reads a group element.
    pub fn element(&mut self, group: &Group) -> Result<ppgr_group::Element, WireError> {
        let n = group.element_len();
        self.need(n, "truncated group element")?;
        let raw = self.buf.copy_to_bytes(n);
        group
            .decode(&raw)
            .map_err(|_| WireError::new("invalid group element"))
    }

    /// Reads a scalar.
    pub fn scalar(&mut self, group: &Group) -> Result<Scalar, WireError> {
        let width = group.order().bits().div_ceil(8);
        self.need(width, "truncated scalar")?;
        let raw = self.buf.copy_to_bytes(width);
        let v = BigUint::from_bytes_be(&raw);
        if &v >= group.order() {
            return Err(WireError::new("scalar out of range"));
        }
        Ok(group.scalar_from(&v))
    }

    /// Reads a ciphertext.
    pub fn ciphertext(&mut self, group: &Group) -> Result<Ciphertext, WireError> {
        Ok(Ciphertext {
            alpha: self.element(group)?,
            beta: self.element(group)?,
        })
    }

    /// Reads a length-prefixed ciphertext vector.
    pub fn ciphertexts(&mut self, group: &Group) -> Result<Vec<Ciphertext>, WireError> {
        let n = self.len()?;
        (0..n).map(|_| self.ciphertext(group)).collect()
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        self.need(8, "truncated u64")?;
        Ok(self.buf.get_u64())
    }

    /// Reads exactly `n` raw bytes (fixed-width payloads written with
    /// [`Writer::put_raw`]).
    pub fn take(&mut self, n: usize) -> Result<Bytes, WireError> {
        self.need(n, "truncated raw bytes")?;
        Ok(self.buf.copy_to_bytes(n))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    /// Asserts the buffer was fully consumed; the error carries how many
    /// bytes were left over, so decoders can report exactly how much
    /// garbage trailed the frame.
    pub fn done(&self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::Trailing(n)),
        }
    }
}

/// Bytes of a keygen share echo.
const ECHO_BYTES: usize = 32;

/// Encodes a message as a data frame: a dot-product round 1 as its row
/// count, the rows and then `c′` and `g`, each a length-prefixed field
/// vector; the reply as `a` then `h`; a submission as the claimed rank (a
/// `u64`), a value count and the values, and a decline as the rank 0; an
/// element or a scalar at the group's width, an echo as its raw bytes, a
/// ciphertext vector length-prefixed, and the chain vector as a set count
/// followed by the sets.
///
/// # Errors
///
/// Fails if a count does not fit its `u32` prefix.
pub(crate) fn encode_msg(group: &Group, msg: &Msg) -> Result<Bytes, WireError> {
    let mut w = Writer::framed();
    match msg {
        Msg::Round1(round1) => {
            w.put_len(round1.qx.len())?;
            for row in &round1.qx {
                w.put_fp_vec(row)?;
            }
            w.put_fp_vec(&round1.c_prime)?;
            w.put_fp_vec(&round1.g)?;
        }
        Msg::Reply(reply) => {
            w.put_fp(&reply.a);
            w.put_fp(&reply.h);
        }
        Msg::Submission(None) => w.put_u64(0),
        Msg::Submission(Some((rank, values))) => {
            w.put_u64(*rank as u64);
            w.put_len(values.len())?;
            for &v in values {
                w.put_u64(v);
            }
        }
        Msg::Element(e) => w.put_element(group, e),
        Msg::Scalar(s) => w.put_scalar(group, s),
        Msg::Echo(digest) => w.put_raw(digest),
        Msg::Ciphertexts(cts) => w.put_ciphertexts(group, cts)?,
        Msg::Chain(sets) => {
            w.put_len(sets.len())?;
            for set in sets {
                w.put_ciphertexts(group, set)?;
            }
        }
    }
    Ok(w.finish())
}

/// Decodes a data frame's payload as a message of `kind`.
///
/// # Errors
///
/// [`WireError`] if the payload does not parse as `kind` or leaves bytes
/// over.
pub(crate) fn decode_msg(group: &Group, kind: Kind, payload: Bytes) -> Result<Msg, WireError> {
    let mut r = Reader::new(payload);
    let msg = match kind {
        Kind::Round1 => {
            let field = default_field();
            let rows = r.len()?;
            let qx = (0..rows).map(|_| r.fp_vec(&field));
            let qx = qx.collect::<Result<_, _>>()?;
            let c_prime = r.fp_vec(&field)?;
            let g = r.fp_vec(&field)?;
            Msg::Round1(Round1Message { qx, c_prime, g })
        }
        Kind::Reply => {
            let field = default_field();
            let a = r.fp(&field)?;
            let h = r.fp(&field)?;
            Msg::Reply(Round2Message { a, h })
        }
        Kind::Submission => match r.u64()? as usize {
            0 => Msg::Submission(None),
            rank => {
                let count = r.len()?;
                let values = (0..count).map(|_| r.u64()).collect::<Result<_, _>>()?;
                Msg::Submission(Some((rank, values)))
            }
        },
        Kind::Element => Msg::Element(r.element(group)?),
        Kind::Scalar => Msg::Scalar(r.scalar(group)?),
        Kind::Echo => {
            let mut digest = [0u8; ECHO_BYTES];
            digest.copy_from_slice(&r.take(ECHO_BYTES)?);
            Msg::Echo(digest)
        }
        Kind::Ciphertexts => Msg::Ciphertexts(r.ciphertexts(group)?),
        Kind::Chain => {
            let count = r.len()?;
            let sets = (0..count).map(|_| r.ciphertexts(group));
            Msg::Chain(sets.collect::<Result<_, _>>()?)
        }
    };
    r.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgr_dotprod::default_field;
    use ppgr_elgamal::{ExpElGamal, KeyPair};
    use ppgr_group::GroupKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fp_round_trip() {
        let field = default_field();
        let mut rng = StdRng::seed_from_u64(1);
        let vs: Vec<Fp> = (0..5).map(|_| field.random(&mut rng)).collect();
        let mut w = Writer::new();
        w.put_fp_vec(&vs).unwrap();
        let mut r = Reader::new(w.finish());
        assert_eq!(r.fp_vec(&field).unwrap(), vs);
        r.done().unwrap();
    }

    #[test]
    fn element_scalar_ciphertext_round_trip() {
        let group = GroupKind::Ecc160.group();
        let mut rng = StdRng::seed_from_u64(2);
        let kp = KeyPair::generate(&group, &mut rng);
        let scheme = ExpElGamal::new(group.clone());
        let ct = scheme.encrypt(kp.public_key(), &group.scalar_from_u64(7), &mut rng);
        let s = group.random_scalar(&mut rng);

        let mut w = Writer::new();
        w.put_element(&group, kp.public_key());
        w.put_scalar(&group, &s);
        w.put_ciphertexts(&group, std::slice::from_ref(&ct))
            .unwrap();
        w.put_u64(42);
        let mut r = Reader::new(w.finish());
        assert_eq!(&r.element(&group).unwrap(), kp.public_key());
        assert_eq!(r.scalar(&group).unwrap(), s);
        assert_eq!(r.ciphertexts(&group).unwrap(), vec![ct]);
        assert_eq!(r.u64().unwrap(), 42);
        r.done().unwrap();
    }

    #[test]
    fn truncation_detected() {
        let field = default_field();
        let mut w = Writer::new();
        w.put_fp(&field.from_u64(5));
        let bytes = w.finish();
        let mut r = Reader::new(bytes.slice(..10));
        assert!(r.fp(&field).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        let field = default_field();
        // 32 bytes of 0xff is ≥ the modulus (2^256 − 189).
        let mut r = Reader::new(Bytes::from(vec![0xffu8; 32]));
        assert!(r.fp(&field).is_err());
    }

    #[test]
    fn data_frame_round_trip() {
        let mut w = Writer::framed();
        w.put_u64(77);
        let bytes = w.finish();
        assert_eq!(bytes[0], TAG_DATA);
        let Frame::Data(payload) = parse_frame(&bytes).unwrap() else {
            panic!("expected data frame");
        };
        let mut r = Reader::new(payload);
        assert_eq!(r.u64().unwrap(), 77);
        r.done().unwrap();
    }

    #[test]
    fn abort_frame_round_trip() {
        for phase in Phase::ALL {
            for kind in [
                AbortKind::Timeout,
                AbortKind::Disconnected,
                AbortKind::ProofRejected,
                AbortKind::Protocol,
            ] {
                let frame = AbortFrame {
                    blamed: 3,
                    phase,
                    kind,
                    reporter: 2,
                };
                let bytes = frame.encode();
                assert_eq!(bytes.len(), AbortFrame::ENCODED_LEN);
                assert_eq!(parse_frame(&bytes).unwrap(), Frame::Abort(frame));
            }
        }
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(parse_frame(&Bytes::new()).is_err());
        assert!(parse_frame(&Bytes::from(vec![0x7f, 0, 0])).is_err());
        // Abort with a truncated body (the old 7-byte v1 layout included).
        assert!(parse_frame(&Bytes::from(vec![TAG_ABORT, 0, 0])).is_err());
        assert!(parse_frame(&Bytes::from(vec![TAG_ABORT, 0, 0, 0, 3, 0, 0])).is_err());
        // Abort with an unknown phase.
        assert!(parse_frame(&Bytes::from(vec![TAG_ABORT, 0, 0, 0, 3, 99, 0, 0, 0, 0, 1])).is_err());
        // Abort with trailing bytes: the garbage count is reported.
        assert_eq!(
            parse_frame(&Bytes::from(vec![
                TAG_ABORT, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 9, 9
            ])),
            Err(WireError::Trailing(2))
        );
    }

    #[test]
    fn absurd_length_prefix_rejected_before_allocation() {
        // Regression: a 4-byte frame claiming u32::MAX elements used to
        // reach `Vec::with_capacity(u32::MAX)` in the decoders. The count
        // must be bounded by the bytes actually present.
        let field = default_field();
        let group = GroupKind::Ecc160.group();
        let mut huge = BytesMut::new();
        huge.put_u32(u32::MAX);
        let bytes = huge.freeze();
        assert!(Reader::new(bytes.clone()).len().is_err());
        assert!(Reader::new(bytes.clone()).fp_vec(&field).is_err());
        assert!(Reader::new(bytes).ciphertexts(&group).is_err());

        // One element short of the claim is still malformed.
        let mut short = BytesMut::new();
        short.put_u32(3);
        short.put_slice(&[0u8; 2]);
        assert!(Reader::new(short.freeze()).len().is_err());

        // A count covered by the payload still decodes.
        let mut w = Writer::new();
        w.put_fp_vec(&[field.from_u64(1), field.from_u64(2)])
            .unwrap();
        let mut r = Reader::new(w.finish());
        assert_eq!(r.fp_vec(&field).unwrap().len(), 2);
        r.done().unwrap();
    }

    #[test]
    fn trailing_bytes_detected_and_counted() {
        let mut w = Writer::new();
        w.put_u64(1);
        w.put_u64(2);
        let mut r = Reader::new(w.finish());
        let _ = r.u64().unwrap();
        assert_eq!(r.remaining(), 8);
        assert_eq!(r.done(), Err(WireError::Trailing(8)));
        let _ = r.u64().unwrap();
        assert_eq!(r.remaining(), 0);
        r.done().unwrap();
    }

    #[test]
    fn every_phase2_message_round_trips_at_its_frame_length() {
        for kind in [GroupKind::Ecc160, GroupKind::Dl1024] {
            let group = kind.group();
            let mut rng = StdRng::seed_from_u64(3);
            let kp = KeyPair::generate(&group, &mut rng);
            let scheme = ExpElGamal::new(group.clone());
            let mut ct =
                |m: u64| scheme.encrypt(kp.public_key(), &group.scalar_from_u64(m), &mut rng);
            let (a, b, c) = (ct(0), ct(1), ct(2));
            let element = group.element_len();
            let scalar = group.order().bits().div_ceil(8);
            let ct_len = 2 * element;
            let field = default_field();
            let fps = |from: u64| {
                (from..from + 3)
                    .map(|v| field.from_u64(v))
                    .collect::<Vec<_>>()
            };
            let round1 = Round1Message {
                qx: vec![fps(1), fps(4)],
                c_prime: fps(7),
                g: fps(10),
            };
            let reply = Round2Message {
                a: field.from_u64(13),
                h: field.from_u64(14),
            };
            // Tag, then the layout each kind has always had on the wire: a
            // round 1 as its row count, the rows, `c′` and `g`; a reply as
            // `a` and `h`; a submission as its rank, a count and the
            // values; a decline as rank 0.
            let cases = [
                (
                    Kind::Round1,
                    Msg::Round1(round1),
                    1 + 4 + 2 * (4 + 3 * FIELD_BYTES) + 2 * (4 + 3 * FIELD_BYTES),
                ),
                (Kind::Reply, Msg::Reply(reply), 1 + 2 * FIELD_BYTES),
                (
                    Kind::Submission,
                    Msg::Submission(Some((2, vec![5, 6, 7]))),
                    1 + 8 + 4 + 3 * 8,
                ),
                (Kind::Submission, Msg::Submission(None), 1 + 8),
                (
                    Kind::Element,
                    Msg::Element(kp.public_key().clone()),
                    1 + element,
                ),
                (
                    Kind::Scalar,
                    Msg::Scalar(group.random_scalar(&mut rng)),
                    1 + scalar,
                ),
                (Kind::Echo, Msg::Echo([7; 32]), 1 + 32),
                (
                    Kind::Ciphertexts,
                    Msg::Ciphertexts(vec![a.clone(), b.clone()]),
                    1 + 4 + 2 * ct_len,
                ),
                (
                    Kind::Chain,
                    Msg::Chain(vec![vec![a, b], vec![c], vec![]]),
                    1 + 4 + (4 + 2 * ct_len) + (4 + ct_len) + 4,
                ),
            ];
            for (shape, msg, len) in cases {
                let label = format!("{kind} {shape:?}");
                let frame = encode_msg(&group, &msg).unwrap();
                assert_eq!(frame.len(), len, "{label}");
                let Frame::Data(payload) = parse_frame(&frame).unwrap() else {
                    panic!("{label}: expected a data frame");
                };
                let decoded = decode_msg(&group, shape, payload.clone()).unwrap();
                assert_eq!(decoded, msg, "{label}");
                let mut padded = payload.to_vec();
                padded.push(0);
                let padded = decode_msg(&group, shape, Bytes::from(padded));
                assert_eq!(padded, Err(WireError::Trailing(1)), "{label}");
            }
        }
    }

    #[test]
    fn raw_bytes_round_trip() {
        let mut w = Writer::new();
        w.put_raw(&[7; 32]);
        w.put_raw(&[8; 32]);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.take(32).unwrap(), Bytes::from(vec![7u8; 32]));
        assert_eq!(r.take(32).unwrap(), Bytes::from(vec![8u8; 32]));
        assert!(r.take(1).is_err());
        r.done().unwrap();
    }
}
