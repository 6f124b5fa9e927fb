//! Compact binary codec for [`CoordMsg`].
//!
//! Coordination messages ride a PCI config-space mailbox in the prototype
//! and would ride hardware signalling channels on future platforms (§3.3),
//! so they must be tiny and self-delimiting: one tag byte followed by
//! fixed-width little-endian fields. A `Tune` is 11 bytes.

use crate::energy::KnobAxis;
use crate::{CoordMsg, EntityId, IslandId, IslandKind};
use std::error::Error;
use std::fmt;

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The buffer ended before the message did.
    Truncated,
    /// The tag byte does not name a message.
    BadTag(u8),
    /// The island-kind byte is invalid.
    BadKind(u8),
    /// The knob-axis byte is invalid.
    BadAxis(u8),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "truncated message"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#x}"),
            CodecError::BadKind(k) => write!(f, "unknown island kind {k:#x}"),
            CodecError::BadAxis(a) => write!(f, "unknown knob axis {a:#x}"),
        }
    }
}

impl Error for CodecError {}

const TAG_REG_ISLAND: u8 = 1;
const TAG_REG_ENTITY: u8 = 2;
const TAG_TUNE: u8 = 3;
const TAG_TRIGGER: u8 = 4;
const TAG_FRAME: u8 = 6;
const TAG_SET_KNOB: u8 = 7;
const TAG_ENVELOPE: u8 = 8;

/// Sentinel for an unaddressed (broadcast) target.
const TARGET_NONE: u16 = u16::MAX;

fn target_to_u16(t: Option<IslandId>) -> u16 {
    t.map_or(TARGET_NONE, |i| i.0)
}

fn target_from_u16(v: u16) -> Option<IslandId> {
    (v != TARGET_NONE).then_some(IslandId(v))
}

fn kind_to_byte(k: IslandKind) -> u8 {
    match k {
        IslandKind::GeneralPurpose => 0,
        IslandKind::NetworkProcessor => 1,
        IslandKind::Accelerator => 2,
        IslandKind::Storage => 3,
    }
}

fn axis_to_byte(a: KnobAxis) -> u8 {
    match a {
        KnobAxis::Dvfs => 0,
        KnobAxis::CacheWays => 1,
        KnobAxis::MembwShare => 2,
    }
}

fn axis_from_byte(b: u8) -> Result<KnobAxis, CodecError> {
    Ok(match b {
        0 => KnobAxis::Dvfs,
        1 => KnobAxis::CacheWays,
        2 => KnobAxis::MembwShare,
        other => return Err(CodecError::BadAxis(other)),
    })
}

fn kind_from_byte(b: u8) -> Result<IslandKind, CodecError> {
    Ok(match b {
        0 => IslandKind::GeneralPurpose,
        1 => IslandKind::NetworkProcessor,
        2 => IslandKind::Accelerator,
        3 => IslandKind::Storage,
        other => return Err(CodecError::BadKind(other)),
    })
}

/// Appends the encoding of `msg` to `buf` and returns the encoded length.
pub fn encode(msg: &CoordMsg, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    match *msg {
        CoordMsg::RegisterIsland { island, kind } => {
            buf.push(TAG_REG_ISLAND);
            buf.extend_from_slice(&island.0.to_le_bytes());
            buf.push(kind_to_byte(kind));
        }
        CoordMsg::RegisterEntity {
            entity,
            island,
            local_key,
        } => {
            buf.push(TAG_REG_ENTITY);
            buf.extend_from_slice(&entity.0.to_le_bytes());
            buf.extend_from_slice(&island.0.to_le_bytes());
            buf.extend_from_slice(&local_key.to_le_bytes());
        }
        CoordMsg::Tune {
            entity,
            delta,
            target,
        } => {
            buf.push(TAG_TUNE);
            buf.extend_from_slice(&entity.0.to_le_bytes());
            buf.extend_from_slice(&delta.to_le_bytes());
            buf.extend_from_slice(&target_to_u16(target).to_le_bytes());
        }
        CoordMsg::Trigger { entity, target } => {
            buf.push(TAG_TRIGGER);
            buf.extend_from_slice(&entity.0.to_le_bytes());
            buf.extend_from_slice(&target_to_u16(target).to_le_bytes());
        }
        CoordMsg::SetKnob {
            entity,
            axis,
            rung,
            target,
        } => {
            buf.push(TAG_SET_KNOB);
            buf.extend_from_slice(&entity.0.to_le_bytes());
            buf.push(axis_to_byte(axis));
            buf.push(rung);
            buf.extend_from_slice(&target_to_u16(target).to_le_bytes());
        }
    }
    buf.len() - start
}

/// Appends a sequence-numbered frame around `msg` to `buf` and returns
/// the encoded length.
///
/// The reliable-delivery layer wraps every data message this way: one
/// frame tag byte, a `u32` little-endian sequence number, then the plain
/// [`encode`] of the inner message.
pub fn encode_framed(seq: u32, msg: &CoordMsg, buf: &mut Vec<u8>) -> usize {
    let start = buf.len();
    buf.push(TAG_FRAME);
    buf.extend_from_slice(&seq.to_le_bytes());
    encode(msg, buf);
    buf.len() - start
}

/// Decodes one sequence-numbered frame from the front of `buf`, returning
/// the sequence number, the inner message, and the bytes consumed.
///
/// # Errors
/// Returns [`CodecError::BadTag`] when the buffer does not start with a
/// frame, and propagates inner decoding errors.
pub fn decode_framed(buf: &[u8]) -> Result<(u32, CoordMsg, usize), CodecError> {
    let tag = *buf.first().ok_or(CodecError::Truncated)?;
    if tag != TAG_FRAME {
        return Err(CodecError::BadTag(tag));
    }
    let b = buf.get(1..5).ok_or(CodecError::Truncated)?;
    let seq = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let (msg, inner) = decode(&buf[5..])?;
    Ok((seq, msg, 5 + inner))
}

/// Appends a Lamport-stamped cross-node envelope around `msg` to `buf`
/// and returns the encoded length.
///
/// Fleet bus lanes wrap every data message this way: one envelope tag
/// byte, a `u32` little-endian sequence number (for the per-lane
/// reliable-delivery layer, exactly as in [`encode_framed`]), then the
/// `u64` Lamport timestamp and `u16` source node that give cross-node
/// messages their deterministic `(lamport, source)` total order, then
/// the plain [`encode`] of the inner message. An envelope `Tune` is
/// 26 bytes.
pub fn encode_envelope(
    seq: u32,
    lamport: u64,
    source: u16,
    msg: &CoordMsg,
    buf: &mut Vec<u8>,
) -> usize {
    let start = buf.len();
    buf.push(TAG_ENVELOPE);
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&lamport.to_le_bytes());
    buf.extend_from_slice(&source.to_le_bytes());
    encode(msg, buf);
    buf.len() - start
}

/// Decodes one cross-node envelope from the front of `buf`, returning
/// the lane sequence number, the `(lamport, source)` stamp, the inner
/// message, and the bytes consumed.
///
/// # Errors
/// Returns [`CodecError::BadTag`] when the buffer does not start with an
/// envelope, and propagates inner decoding errors.
pub fn decode_envelope(buf: &[u8]) -> Result<(u32, u64, u16, CoordMsg, usize), CodecError> {
    let tag = *buf.first().ok_or(CodecError::Truncated)?;
    if tag != TAG_ENVELOPE {
        return Err(CodecError::BadTag(tag));
    }
    let b = buf.get(1..15).ok_or(CodecError::Truncated)?;
    let seq = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let lamport = u64::from_le_bytes(b[4..12].try_into().expect("8 bytes"));
    let source = u16::from_le_bytes([b[12], b[13]]);
    let (msg, inner) = decode(&buf[15..])?;
    Ok((seq, lamport, source, msg, 15 + inner))
}

/// Decodes one message from the front of `buf`, returning it and the
/// number of bytes consumed.
///
/// # Errors
/// Returns [`CodecError`] on truncation or unknown tags.
pub fn decode(buf: &[u8]) -> Result<(CoordMsg, usize), CodecError> {
    let tag = *buf.first().ok_or(CodecError::Truncated)?;
    let rest = &buf[1..];
    let take =
        |n: usize| -> Result<&[u8], CodecError> { rest.get(..n).ok_or(CodecError::Truncated) };
    match tag {
        TAG_REG_ISLAND => {
            let b = take(3)?;
            let island = IslandId(u16::from_le_bytes([b[0], b[1]]));
            let kind = kind_from_byte(b[2])?;
            Ok((CoordMsg::RegisterIsland { island, kind }, 4))
        }
        TAG_REG_ENTITY => {
            let b = take(14)?;
            let entity = EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            let island = IslandId(u16::from_le_bytes([b[4], b[5]]));
            let local_key = u64::from_le_bytes(b[6..14].try_into().expect("8 bytes"));
            Ok((
                CoordMsg::RegisterEntity {
                    entity,
                    island,
                    local_key,
                },
                15,
            ))
        }
        TAG_TUNE => {
            let b = take(10)?;
            let entity = EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            let delta = i32::from_le_bytes([b[4], b[5], b[6], b[7]]);
            let target = target_from_u16(u16::from_le_bytes([b[8], b[9]]));
            Ok((
                CoordMsg::Tune {
                    entity,
                    delta,
                    target,
                },
                11,
            ))
        }
        TAG_TRIGGER => {
            let b = take(6)?;
            let entity = EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            let target = target_from_u16(u16::from_le_bytes([b[4], b[5]]));
            Ok((CoordMsg::Trigger { entity, target }, 7))
        }
        TAG_SET_KNOB => {
            let b = take(8)?;
            let entity = EntityId(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            let axis = axis_from_byte(b[4])?;
            let rung = b[5];
            let target = target_from_u16(u16::from_le_bytes([b[6], b[7]]));
            Ok((
                CoordMsg::SetKnob {
                    entity,
                    axis,
                    rung,
                    target,
                },
                9,
            ))
        }
        other => Err(CodecError::BadTag(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: CoordMsg) {
        let mut buf = Vec::new();
        let n = encode(&msg, &mut buf);
        assert_eq!(n, buf.len());
        let (decoded, consumed) = decode(&buf).unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(consumed, n);
    }

    #[test]
    fn roundtrips_every_variant() {
        roundtrip(CoordMsg::RegisterIsland {
            island: IslandId(7),
            kind: IslandKind::NetworkProcessor,
        });
        roundtrip(CoordMsg::RegisterEntity {
            entity: EntityId(0xDEAD_BEEF),
            island: IslandId(u16::MAX),
            local_key: u64::MAX,
        });
        roundtrip(CoordMsg::Tune {
            entity: EntityId(3),
            delta: -12345,
            target: Some(IslandId(2)),
        });
        roundtrip(CoordMsg::Tune {
            entity: EntityId(3),
            delta: 64,
            target: None,
        });
        roundtrip(CoordMsg::Trigger {
            entity: EntityId(0),
            target: None,
        });
        roundtrip(CoordMsg::Trigger {
            entity: EntityId(0),
            target: Some(IslandId(0)),
        });
        for axis in KnobAxis::ALL {
            roundtrip(CoordMsg::SetKnob {
                entity: EntityId(3),
                axis,
                rung: u8::MAX,
                target: Some(IslandId(1)),
            });
            roundtrip(CoordMsg::SetKnob {
                entity: EntityId(0),
                axis,
                rung: 0,
                target: None,
            });
        }
    }

    #[test]
    fn set_knob_is_nine_bytes_and_rejects_bad_axes() {
        let mut buf = Vec::new();
        let n = encode(
            &CoordMsg::SetKnob {
                entity: EntityId(1),
                axis: KnobAxis::CacheWays,
                rung: 2,
                target: None,
            },
            &mut buf,
        );
        assert_eq!(n, 9);
        assert_eq!(
            decode(&[TAG_SET_KNOB, 0, 0, 0, 0, 9, 0, 0, 0]),
            Err(CodecError::BadAxis(9))
        );
    }

    #[test]
    fn tune_is_eleven_bytes() {
        let mut buf = Vec::new();
        let n = encode(
            &CoordMsg::Tune {
                entity: EntityId(1),
                delta: 64,
                target: None,
            },
            &mut buf,
        );
        assert_eq!(n, 11);
    }

    #[test]
    fn stream_of_messages_decodes_sequentially() {
        let msgs = [
            CoordMsg::Tune {
                entity: EntityId(1),
                delta: 64,
                target: None,
            },
            CoordMsg::Trigger {
                entity: EntityId(2),
                target: Some(IslandId(1)),
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            encode(m, &mut buf);
        }
        let mut off = 0;
        for m in &msgs {
            let (d, n) = decode(&buf[off..]).unwrap();
            assert_eq!(d, *m);
            off += n;
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn truncated_and_bad_tags_error() {
        assert_eq!(decode(&[]), Err(CodecError::Truncated));
        assert_eq!(decode(&[TAG_TUNE, 1, 2]), Err(CodecError::Truncated));
        assert_eq!(decode(&[0xFF]), Err(CodecError::BadTag(0xFF)));
        assert_eq!(
            decode(&[TAG_REG_ISLAND, 0, 0, 9]),
            Err(CodecError::BadKind(9))
        );
    }

    #[test]
    fn framed_roundtrip_and_errors() {
        let msg = CoordMsg::Tune {
            entity: EntityId(9),
            delta: -3,
            target: Some(IslandId(1)),
        };
        let mut buf = Vec::new();
        let n = encode_framed(0xABCD_1234, &msg, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, 5 + 11, "frame header + inner Tune");
        let (seq, decoded, consumed) = decode_framed(&buf).unwrap();
        assert_eq!((seq, decoded, consumed), (0xABCD_1234, msg, n));

        // An unframed message is rejected as a frame, and vice versa the
        // plain decoder rejects the frame tag — the two namespaces stay
        // disjoint on the wire.
        let mut plain = Vec::new();
        encode(&msg, &mut plain);
        assert_eq!(decode_framed(&plain), Err(CodecError::BadTag(TAG_TUNE)));
        assert_eq!(decode(&buf), Err(CodecError::BadTag(TAG_FRAME)));
        assert_eq!(decode_framed(&buf[..3]), Err(CodecError::Truncated));
    }

    #[test]
    fn envelope_roundtrip_and_errors() {
        let msg = CoordMsg::Tune {
            entity: EntityId(9),
            delta: -3,
            target: Some(IslandId(1)),
        };
        let mut buf = Vec::new();
        let n = encode_envelope(0xABCD_1234, u64::MAX - 1, 0xBEEF, &msg, &mut buf);
        assert_eq!(n, buf.len());
        assert_eq!(n, 15 + 11, "envelope header + inner Tune");
        let (seq, lamport, source, decoded, consumed) = decode_envelope(&buf).unwrap();
        assert_eq!(
            (seq, lamport, source, decoded, consumed),
            (0xABCD_1234, u64::MAX - 1, 0xBEEF, msg, n)
        );

        // The three wire namespaces — plain, framed, enveloped — stay
        // disjoint: each decoder rejects the other tags.
        let mut plain = Vec::new();
        encode(&msg, &mut plain);
        assert_eq!(decode_envelope(&plain), Err(CodecError::BadTag(TAG_TUNE)));
        assert_eq!(decode(&buf), Err(CodecError::BadTag(TAG_ENVELOPE)));
        assert_eq!(decode_framed(&buf), Err(CodecError::BadTag(TAG_ENVELOPE)));
        let mut framed = Vec::new();
        encode_framed(7, &msg, &mut framed);
        assert_eq!(decode_envelope(&framed), Err(CodecError::BadTag(TAG_FRAME)));
    }

    #[test]
    fn envelope_rejects_every_strict_prefix() {
        let msg = CoordMsg::SetKnob {
            entity: EntityId(3),
            axis: KnobAxis::Dvfs,
            rung: 2,
            target: None,
        };
        let mut buf = Vec::new();
        let n = encode_envelope(1, 2, 3, &msg, &mut buf);
        for cut in 0..n {
            assert_eq!(
                decode_envelope(&buf[..cut]),
                Err(CodecError::Truncated),
                "prefix of {cut} bytes must be rejected"
            );
        }
    }

    #[test]
    fn all_messages_fit_a_config_space_dword_run() {
        // The mailbox in the prototype is a handful of config-space
        // registers; every message must stay tiny.
        let msgs = [
            CoordMsg::RegisterIsland {
                island: IslandId(1),
                kind: IslandKind::Storage,
            },
            CoordMsg::RegisterEntity {
                entity: EntityId(1),
                island: IslandId(1),
                local_key: 2,
            },
            CoordMsg::Tune {
                entity: EntityId(1),
                delta: i32::MIN,
                target: None,
            },
            CoordMsg::Trigger {
                entity: EntityId(1),
                target: Some(IslandId(9)),
            },
            CoordMsg::SetKnob {
                entity: EntityId(1),
                axis: KnobAxis::MembwShare,
                rung: u8::MAX,
                target: None,
            },
        ];
        for m in msgs {
            let mut buf = Vec::new();
            assert!(encode(&m, &mut buf) <= 16, "{m:?} too large");
        }
    }
}
