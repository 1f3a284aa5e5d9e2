//! Driver file-transfer security (paper §3.1).
//!
//! Three methods, matching [`TransferMethod`]:
//!
//! * **Plain** — "an FTP-like protocol": raw bytes.
//! * **Checksum** — integrity digest appended; detects corruption but not
//!   substitution.
//! * **Sealed** — the paper's "encrypted authenticated SSL channel": the
//!   server presents a certificate, the bootloader verifies it against its
//!   trust anchors, and the payload is enciphered and MAC'd under a
//!   session key.
//!
//! ## Substitution note
//!
//! The sealed channel is a **simulation** of TLS: certificates are
//! fingerprint structs, the cipher is an XOR keystream, and the MAC an FNV
//! digest. It faithfully models the *decisions* (trust-anchor check,
//! tamper detection, refusing untrusted servers) against non-adaptive
//! faults — not real cryptography.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::{BufMut, Bytes, BytesMut};

use netsim::codec::{get_bytes, get_str, get_u64};

use crate::digest::fnv1a64_parts;
use crate::error::{DrvError, DrvResult};
use crate::policy::TransferMethod;

/// A server identity certificate for the sealed channel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    host: String,
    serial: u64,
}

impl Certificate {
    /// Issues a certificate for `host` with the given serial.
    pub fn issue(host: impl Into<String>, serial: u64) -> Self {
        Certificate {
            host: host.into(),
            serial,
        }
    }

    /// The certified host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// Stable fingerprint a bootloader pins.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64_parts(&[b"cert", self.host.as_bytes(), &self.serial.to_le_bytes()])
    }

    fn encode_into(&self, b: &mut BytesMut) {
        netsim::codec::put_str(b, &self.host);
        b.put_u64_le(self.serial);
    }

    fn decode(buf: &mut Bytes) -> DrvResult<Self> {
        Ok(Certificate {
            host: get_str(buf, "cert host")?,
            serial: get_u64(buf, "cert serial")?,
        })
    }
}

/// Trust anchors held by a bootloader: the set of pinned certificate
/// fingerprints.
#[derive(Clone, Debug, Default)]
pub struct ChannelTrust {
    pinned: HashSet<u64>,
}

impl ChannelTrust {
    /// An empty trust set (all sealed transfers are refused).
    pub fn new() -> Self {
        ChannelTrust::default()
    }

    /// Pins a certificate.
    pub fn pin(&mut self, cert: &Certificate) {
        self.pinned.insert(cert.fingerprint());
    }

    /// Whether `cert` is pinned.
    pub fn trusts(&self, cert: &Certificate) -> bool {
        self.pinned.contains(&cert.fingerprint())
    }
}

static NONCE_COUNTER: AtomicU64 = AtomicU64::new(1);

fn keystream_block(key: u64, i: u64) -> [u8; 8] {
    fnv1a64_parts(&[&key.to_le_bytes(), &i.to_le_bytes()]).to_le_bytes()
}

fn xor_stream(key: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len());
    for (i, chunk) in data.chunks(8).enumerate() {
        let block = keystream_block(key, i as u64);
        for (j, b) in chunk.iter().enumerate() {
            out.push(b ^ block[j]);
        }
    }
    out
}

fn session_key(cert: &Certificate, nonce: u64) -> u64 {
    fnv1a64_parts(&[
        b"session",
        &cert.fingerprint().to_le_bytes(),
        &nonce.to_le_bytes(),
    ])
}

/// Wraps `payload` for transfer under `method`.
///
/// `cert` is required for [`TransferMethod::Sealed`] (the serving host's
/// certificate).
///
/// # Errors
///
/// [`DrvError::TransferFailed`] when sealing is requested without a
/// certificate, or the method is `Any` (unresolved).
pub fn wrap(
    method: TransferMethod,
    payload: &[u8],
    cert: Option<&Certificate>,
) -> DrvResult<Bytes> {
    let mut b = BytesMut::new();
    match method {
        TransferMethod::Any => {
            return Err(DrvError::TransferFailed(
                "transfer method ANY must be resolved before wrapping".into(),
            ))
        }
        TransferMethod::Plain => {
            b.put_u8(0);
            netsim::codec::put_bytes(&mut b, payload);
        }
        TransferMethod::Checksum => {
            b.put_u8(1);
            netsim::codec::put_bytes(&mut b, payload);
            b.put_u64_le(fnv1a64_parts(&[payload]));
        }
        TransferMethod::Sealed => {
            let cert = cert.ok_or_else(|| {
                DrvError::TransferFailed("sealed transfer requires a server certificate".into())
            })?;
            let nonce = NONCE_COUNTER.fetch_add(1, Ordering::Relaxed);
            let key = session_key(cert, nonce);
            let ct = xor_stream(key, payload);
            b.put_u8(2);
            cert.encode_into(&mut b);
            b.put_u64_le(nonce);
            netsim::codec::put_bytes(&mut b, &ct);
            b.put_u64_le(fnv1a64_parts(&[&key.to_le_bytes(), &ct]));
        }
    }
    Ok(b.freeze())
}

/// Unwraps a transfer envelope, enforcing the expected `method` and (for
/// sealed envelopes) the bootloader's `trust` anchors.
///
/// # Errors
///
/// * [`DrvError::TransferFailed`] — wrong method, corruption, bad MAC.
/// * [`DrvError::CertificateUntrusted`] — sealed envelope from an
///   unpinned certificate (the paper's man-in-the-middle defence).
pub fn unwrap(method: TransferMethod, bytes: Bytes, trust: &ChannelTrust) -> DrvResult<Bytes> {
    let mut buf = bytes;
    let tag = netsim::codec::get_u8(&mut buf, "transfer tag")?;
    let expected = match method {
        TransferMethod::Any => tag, // accept whatever the server chose
        TransferMethod::Plain => 0,
        TransferMethod::Checksum => 1,
        TransferMethod::Sealed => 2,
    };
    if tag != expected {
        return Err(DrvError::TransferFailed(format!(
            "expected transfer method {method}, got tag {tag}"
        )));
    }
    match tag {
        0 => Ok(get_bytes(&mut buf, "plain payload")?),
        1 => {
            let payload = get_bytes(&mut buf, "checksum payload")?;
            let sum = get_u64(&mut buf, "checksum")?;
            if fnv1a64_parts(&[&payload]) != sum {
                return Err(DrvError::TransferFailed(
                    "checksum mismatch: transfer corrupted".into(),
                ));
            }
            Ok(payload)
        }
        2 => {
            let cert = Certificate::decode(&mut buf)?;
            if !trust.trusts(&cert) {
                return Err(DrvError::CertificateUntrusted(format!(
                    "certificate for {} (fingerprint {:016x}) is not pinned",
                    cert.host(),
                    cert.fingerprint()
                )));
            }
            let nonce = get_u64(&mut buf, "nonce")?;
            let ct = get_bytes(&mut buf, "ciphertext")?;
            let mac = get_u64(&mut buf, "mac")?;
            let key = session_key(&cert, nonce);
            if fnv1a64_parts(&[&key.to_le_bytes(), &ct]) != mac {
                return Err(DrvError::TransferFailed(
                    "mac mismatch: sealed transfer tampered".into(),
                ));
            }
            Ok(Bytes::from(xor_stream(key, &ct)))
        }
        t => Err(DrvError::TransferFailed(format!(
            "unknown transfer tag {t}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trust_for(cert: &Certificate) -> ChannelTrust {
        let mut t = ChannelTrust::new();
        t.pin(cert);
        t
    }

    #[test]
    fn plain_roundtrip() {
        let w = wrap(TransferMethod::Plain, b"driver", None).unwrap();
        let p = unwrap(TransferMethod::Plain, w, &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"driver"));
    }

    #[test]
    fn checksum_roundtrip_and_corruption() {
        let w = wrap(TransferMethod::Checksum, b"driver-bytes", None).unwrap();
        let p = unwrap(TransferMethod::Checksum, w.clone(), &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"driver-bytes"));
        let mut bad = w.to_vec();
        bad[6] ^= 0x01;
        let e = unwrap(
            TransferMethod::Checksum,
            Bytes::from(bad),
            &ChannelTrust::new(),
        );
        assert!(matches!(e, Err(DrvError::TransferFailed(_))));
    }

    #[test]
    fn sealed_roundtrip() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"secret driver", Some(&cert)).unwrap();
        let p = unwrap(TransferMethod::Sealed, w, &trust_for(&cert)).unwrap();
        assert_eq!(p, Bytes::from_static(b"secret driver"));
    }

    #[test]
    fn sealed_hides_plaintext() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"SECRETSECRETSECRET", Some(&cert)).unwrap();
        assert!(!w.windows(6).any(|win| win == b"SECRET"));
    }

    #[test]
    fn untrusted_certificate_rejected() {
        let cert = Certificate::issue("evil-middlebox", 666);
        let w = wrap(TransferMethod::Sealed, b"driver", Some(&cert)).unwrap();
        let good_cert = Certificate::issue("db1", 1);
        let e = unwrap(TransferMethod::Sealed, w, &trust_for(&good_cert));
        assert!(matches!(e, Err(DrvError::CertificateUntrusted(_))));
    }

    #[test]
    fn sealed_tamper_detected() {
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"driver-payload-bytes", Some(&cert)).unwrap();
        let trust = trust_for(&cert);
        // Flip one ciphertext byte (past cert + nonce).
        let mut bad = w.to_vec();
        let pos = bad.len() - 12;
        bad[pos] ^= 0xff;
        let e = unwrap(TransferMethod::Sealed, Bytes::from(bad), &trust);
        assert!(e.is_err());
    }

    #[test]
    fn method_mismatch_rejected() {
        let w = wrap(TransferMethod::Plain, b"x", None).unwrap();
        assert!(unwrap(TransferMethod::Sealed, w, &ChannelTrust::new()).is_err());
        let cert = Certificate::issue("db1", 1);
        let w = wrap(TransferMethod::Sealed, b"x", Some(&cert)).unwrap();
        assert!(unwrap(TransferMethod::Plain, w, &trust_for(&cert)).is_err());
    }

    #[test]
    fn any_accepts_server_choice_on_unwrap_but_not_wrap() {
        assert!(wrap(TransferMethod::Any, b"x", None).is_err());
        let w = wrap(TransferMethod::Checksum, b"x", None).unwrap();
        let p = unwrap(TransferMethod::Any, w, &ChannelTrust::new()).unwrap();
        assert_eq!(p, Bytes::from_static(b"x"));
    }

    #[test]
    fn sealing_requires_cert() {
        assert!(matches!(
            wrap(TransferMethod::Sealed, b"x", None),
            Err(DrvError::TransferFailed(_))
        ));
    }

    #[test]
    fn nonces_differ_between_wraps() {
        let cert = Certificate::issue("db1", 1);
        let a = wrap(TransferMethod::Sealed, b"same", Some(&cert)).unwrap();
        let b = wrap(TransferMethod::Sealed, b"same", Some(&cert)).unwrap();
        assert_ne!(a, b);
    }
}
