//! Length-prefixed frames and the wire table of [`Error`] — the transport
//! layer shared by the `desq-serve` protocol and the networked BSP
//! shuffle.
//!
//! A frame is `varint(payload_len) payload`, the prefix a LEB128 varint
//! decoded by the strict [`read_varint`]. Every protocol passes its own
//! payload cap: [`write_frame`] refuses to send a payload above it, and
//! [`read_frame`] rejects a larger length prefix *before* allocating the
//! payload buffer, so a hostile or corrupt prefix can never make a reader
//! allocate more than the cap. Both return `std::io` errors: a closed or
//! truncated stream is `UnexpectedEof`, a malformed or oversized prefix
//! `InvalidData`.
//!
//! [`encode_error`] / [`decode_error`] carry an [`Error`] variant-exactly:
//!
//! | kind | variant | kind | variant |
//! |------|---------|------|---------|
//! | `0` | `Parse` (`msg:str, pos:varint`) | `6` | `DeadlineExceeded` |
//! | `1` | `UnknownItem` | `7` | `Cancelled` |
//! | `2` | `CyclicHierarchy` | `8` | `WorkerPanicked` |
//! | `3` | `ResourceExhausted` | `9` | `PeerUnreachable` |
//! | `4` | `Decode` | `10` | `PeerTimedOut` |
//! | `5` | `Invalid` | | |
//!
//! Every kind but `Parse` is followed by `msg:str` alone
//! ([`write_str`]).

use std::io::{self, Read, Write};

use crate::codec::{read_str, read_u8, read_varint, write_str, write_varint};
use crate::error::{Error, Result};

/// Longest LEB128 encoding of a `u64` length prefix.
const MAX_PREFIX_LEN: usize = 10;

fn invalid_data(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The full wire bytes of one frame: `varint(payload.len())` followed by
/// the payload. Fails with `InvalidData` when the payload exceeds `cap`.
/// Callers that send the same frame more than once (re-queued tasks,
/// heartbeats) encode it once with this.
pub fn frame_bytes(payload: &[u8], cap: usize) -> io::Result<Vec<u8>> {
    if payload.len() > cap {
        return Err(invalid_data(format!(
            "frame payload of {} bytes exceeds the {cap}-byte cap",
            payload.len()
        )));
    }
    let mut wire = Vec::with_capacity(payload.len() + MAX_PREFIX_LEN);
    write_varint(&mut wire, payload.len() as u64);
    wire.extend_from_slice(payload);
    Ok(wire)
}

/// Writes one frame with a single `write_all` and flushes. Nothing is
/// written when the payload exceeds `cap`.
pub fn write_frame(w: &mut impl Write, payload: &[u8], cap: usize) -> io::Result<()> {
    w.write_all(&frame_bytes(payload, cap)?)?;
    w.flush()
}

/// Reads one frame and returns its payload (the length prefix is consumed
/// and validated, not returned). The length is checked against `cap`
/// before the payload buffer is allocated.
pub fn read_frame(r: &mut impl Read, cap: usize) -> io::Result<Vec<u8>> {
    // Collect the prefix up to its last byte (or the longest legal
    // length), then hand it to the one strict varint decoder.
    let mut prefix = [0u8; MAX_PREFIX_LEN];
    let mut n = 0;
    loop {
        r.read_exact(&mut prefix[n..=n])?;
        n += 1;
        if prefix[n - 1] & 0x80 == 0 || n == MAX_PREFIX_LEN {
            break;
        }
    }
    let len = read_varint(&mut &prefix[..n])
        .map_err(|e| invalid_data(format!("frame length prefix: {e}")))?;
    if len > cap as u64 {
        return Err(invalid_data(format!(
            "frame length {len} exceeds the {cap}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Appends the wire encoding of `e` (see the module table) to `buf`.
pub fn encode_error(e: &Error, buf: &mut Vec<u8>) {
    let (kind, msg) = match e {
        Error::Parse { msg, .. } => (0u8, msg),
        Error::UnknownItem(msg) => (1, msg),
        Error::CyclicHierarchy(msg) => (2, msg),
        Error::ResourceExhausted(msg) => (3, msg),
        Error::Decode(msg) => (4, msg),
        Error::Invalid(msg) => (5, msg),
        Error::DeadlineExceeded(msg) => (6, msg),
        Error::Cancelled(msg) => (7, msg),
        Error::WorkerPanicked(msg) => (8, msg),
        Error::PeerUnreachable(msg) => (9, msg),
        Error::PeerTimedOut(msg) => (10, msg),
    };
    buf.push(kind);
    write_str(buf, msg);
    if let Error::Parse { pos, .. } = e {
        write_varint(buf, *pos as u64);
    }
}

/// Decodes one [`encode_error`] record, advancing `buf`. Rejects unknown
/// kinds, truncated input and invalid UTF-8.
pub fn decode_error(buf: &mut &[u8]) -> Result<Error> {
    let kind = read_u8(buf)?;
    let msg = read_str(buf)?.to_string();
    Ok(match kind {
        0 => Error::Parse {
            msg,
            pos: read_varint(buf)? as usize,
        },
        1 => Error::UnknownItem(msg),
        2 => Error::CyclicHierarchy(msg),
        3 => Error::ResourceExhausted(msg),
        4 => Error::Decode(msg),
        5 => Error::Invalid(msg),
        6 => Error::DeadlineExceeded(msg),
        7 => Error::Cancelled(msg),
        8 => Error::WorkerPanicked(msg),
        9 => Error::PeerUnreachable(msg),
        10 => Error::PeerTimedOut(msg),
        other => return Err(Error::Decode(format!("unknown error kind {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the wire kind of every variant: the serve protocol's bytes
    /// depend on this numbering.
    #[test]
    fn every_error_roundtrips_with_its_wire_kind() {
        let every_error = [
            Error::Parse {
                msg: "unexpected ']'".into(),
                pos: 300,
            },
            Error::UnknownItem("VRB".into()),
            Error::CyclicHierarchy("a".into()),
            Error::ResourceExhausted("budget".into()),
            Error::Decode("bad".into()),
            Error::Invalid("σ = 0".into()),
            Error::DeadlineExceeded("100ms".into()),
            Error::Cancelled("drain".into()),
            Error::WorkerPanicked("boom".into()),
            Error::PeerUnreachable("127.0.0.1:9".into()),
            Error::PeerTimedOut("worker 2".into()),
        ];
        for (kind, e) in every_error.into_iter().enumerate() {
            let mut buf = Vec::new();
            encode_error(&e, &mut buf);
            assert_eq!(usize::from(buf[0]), kind, "{e:?}");
            let mut s = buf.as_slice();
            assert_eq!(decode_error(&mut s).unwrap(), e);
            assert!(s.is_empty());
        }
        assert!(decode_error(&mut &[11u8, 0][..]).is_err());
    }
}
