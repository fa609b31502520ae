//! Hand-serialized sweep-point records — no serde, no bincode.
//!
//! A record maps a [`PointKey`] — `(model fingerprint, axis point,
//! solver version)` — to a [`PointRecord`]: either the raw stationary
//! solution of the point (boundary vectors and the `R`/`G` matrices,
//! stored as exact `f64` bit patterns so replay is byte-identical) or a
//! typed failure.
//!
//! Encoding is little-endian throughout:
//!
//! ```text
//! payload := tag:u8  key  body
//! key     := str(fingerprint)  solver_version:u32  x_bits:u64
//! body    := m:u32  f64[m] pi0  f64[m] pi1  f64[m*m] r  f64[m*m] g   (tag 1, solved)
//!          | str(kind)  str(message)                                 (tag 2, failed)
//! str     := len:u32  utf8[len]
//! ```

use std::fmt;

/// The content address of one sweep point.
///
/// Two runs that build the same model at the same grid coordinate with
/// the same solver version share a key — which is exactly the dedupe
/// the resumable/sharded sweep fabric needs. A solver-version bump
/// changes every key, so stale records (including stale *failure*
/// records) are re-attempted rather than replayed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey {
    /// Full model fingerprint (includes the arrival rate; see
    /// `performa_core::sweep::store_key`).
    pub fingerprint: String,
    /// Version of the solver stack that produced the record.
    pub solver_version: u32,
    /// Exact bits of the grid coordinate `x`.
    pub x_bits: u64,
}

/// One persisted sweep-point outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum PointRecord {
    /// The point solved; the raw parts of the stationary solution.
    Solved {
        /// Phase dimension `m`.
        m: u32,
        /// Boundary vector `π₀` (`m` entries).
        pi0: Vec<f64>,
        /// Boundary vector `π₁` (`m` entries).
        pi1: Vec<f64>,
        /// Rate matrix `R`, row-major (`m·m` entries).
        r: Vec<f64>,
        /// First-passage matrix `G`, row-major (`m·m` entries).
        g: Vec<f64>,
    },
    /// The point failed after the solver's recovery ladder; replayed
    /// as a typed error unless the caller asks for re-attempts.
    Failed {
        /// Short machine-readable failure class (e.g.
        /// `"numerical_breakdown"`).
        kind: String,
        /// Human-readable message of the original error.
        message: String,
    },
}

/// A record decoding failure (corrupt or truncated payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What was being decoded when the payload ran out or misparsed.
    pub context: &'static str,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "record decode failed at {}", self.context)
    }
}

impl std::error::Error for DecodeError {}

const TAG_SOLVED: u8 = 1;
const TAG_FAILED: u8 = 2;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    for &x in xs {
        out.extend_from_slice(&x.to_bits().to_le_bytes());
    }
}

/// Cursor over a payload slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.bytes.len() - self.pos < n {
            return Err(DecodeError { context });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, DecodeError> {
        Ok(self.take(1, context)?[0])
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4, context)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8, context)?.try_into().expect("8 bytes")))
    }

    fn string(&mut self, context: &'static str) -> Result<String, DecodeError> {
        let len = self.u32(context)? as usize;
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError { context })
    }

    fn f64s(&mut self, n: usize, context: &'static str) -> Result<Vec<f64>, DecodeError> {
        let bytes = self.take(n.checked_mul(8).ok_or(DecodeError { context })?, context)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    fn done(&self, context: &'static str) -> Result<(), DecodeError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(DecodeError { context })
        }
    }
}

/// Encodes a `(key, record)` pair into a frame payload.
pub fn encode_record(key: &PointKey, record: &PointRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    match record {
        PointRecord::Solved { m, pi0, pi1, r, g } => {
            out.push(TAG_SOLVED);
            put_str(&mut out, &key.fingerprint);
            out.extend_from_slice(&key.solver_version.to_le_bytes());
            out.extend_from_slice(&key.x_bits.to_le_bytes());
            out.extend_from_slice(&m.to_le_bytes());
            put_f64s(&mut out, pi0);
            put_f64s(&mut out, pi1);
            put_f64s(&mut out, r);
            put_f64s(&mut out, g);
        }
        PointRecord::Failed { kind, message } => {
            out.push(TAG_FAILED);
            put_str(&mut out, &key.fingerprint);
            out.extend_from_slice(&key.solver_version.to_le_bytes());
            out.extend_from_slice(&key.x_bits.to_le_bytes());
            put_str(&mut out, kind);
            put_str(&mut out, message);
        }
    }
    out
}

/// Decodes a frame payload back into its `(key, record)` pair.
///
/// # Errors
///
/// [`DecodeError`] when the payload is truncated, carries an unknown
/// tag, declares inconsistent dimensions, or has trailing bytes.
pub fn decode_record(payload: &[u8]) -> Result<(PointKey, PointRecord), DecodeError> {
    let mut r = Reader { bytes: payload, pos: 0 };
    let tag = r.u8("tag")?;
    let fingerprint = r.string("fingerprint")?;
    let solver_version = r.u32("solver_version")?;
    let x_bits = r.u64("x_bits")?;
    let key = PointKey {
        fingerprint,
        solver_version,
        x_bits,
    };
    let record = match tag {
        TAG_SOLVED => {
            let m = r.u32("phase_dim")?;
            let n = m as usize;
            let pi0 = r.f64s(n, "pi0")?;
            let pi1 = r.f64s(n, "pi1")?;
            let rmat = r.f64s(n * n, "r_matrix")?;
            let g = r.f64s(n * n, "g_matrix")?;
            PointRecord::Solved {
                m,
                pi0,
                pi1,
                r: rmat,
                g,
            }
        }
        TAG_FAILED => {
            let kind = r.string("failure_kind")?;
            let message = r.string("failure_message")?;
            PointRecord::Failed { kind, message }
        }
        _ => return Err(DecodeError { context: "tag" }),
    };
    r.done("trailing bytes")?;
    Ok((key, record))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solved_key() -> PointKey {
        PointKey {
            fingerprint: "n=2;nu=4611686018427387904".to_string(),
            solver_version: 1,
            x_bits: 0.7f64.to_bits(),
        }
    }

    #[test]
    fn solved_round_trip_is_exact() {
        let key = solved_key();
        let rec = PointRecord::Solved {
            m: 2,
            pi0: vec![0.25, f64::MIN_POSITIVE],
            pi1: vec![1.0 / 3.0, 1e-300],
            r: vec![0.1, 0.2, 0.3, 0.4],
            g: vec![0.9, 0.1, 0.5, 0.5],
        };
        let payload = encode_record(&key, &rec);
        let (k2, r2) = decode_record(&payload).unwrap();
        assert_eq!(k2, key);
        assert_eq!(r2, rec);
    }

    #[test]
    fn failed_round_trip() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "numerical_breakdown".to_string(),
            message: "NaN at iteration 7 of logred".to_string(),
        };
        let payload = encode_record(&key, &rec);
        assert_eq!(decode_record(&payload).unwrap(), (key, rec));
    }

    #[test]
    fn truncated_payload_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let payload = encode_record(&key, &rec);
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let mut payload = encode_record(&key, &rec);
        payload.push(0);
        assert!(decode_record(&payload).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let key = solved_key();
        let rec = PointRecord::Failed {
            kind: "x".to_string(),
            message: "y".to_string(),
        };
        let mut payload = encode_record(&key, &rec);
        payload[0] = 77;
        assert!(decode_record(&payload).is_err());
    }
}
