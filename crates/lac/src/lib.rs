//! The LAC post-quantum public-key encryption scheme and CCA-secure KEM.
//!
//! LAC (Lu, Liu, Jia, Xue, He, Zhang — NIST PQC round 2) is a Ring-LWE
//! encryption scheme with byte-sized coefficients (q = 251), ternary
//! fixed-weight secrets, and a strong BCH error-correcting code that makes
//! the aggressive parameters reliable. This crate implements the round-2
//! style scheme end to end:
//!
//! * [`Params`] — the LAC-128 / LAC-192 / LAC-256 parameter sets (NIST
//!   security categories I / III / V);
//! * [`Lac`] — the CPA public-key encryption core: `GenA` seed expansion,
//!   fixed-weight ternary sampling, BCH encoding (with D2 double encoding
//!   for LAC-256), RLWE encryption with 4-bit ciphertext compression;
//! * [`Kem`] — the CCA-secure KEM via the Fujisaki–Okamoto transform with
//!   re-encryption and implicit rejection;
//! * [`Backend`] — the execution substrate abstraction of the DATE 2020
//!   paper's evaluation: [`SoftwareBackend`] charges the RISCY software
//!   cost model (with a choice of the submission-style or constant-time BCH
//!   decoder), while [`AcceleratedBackend`] drives the cycle-accurate
//!   MUL TER / SHA256 / MUL CHIEN hardware models through the custom
//!   instruction cost protocol.
//!
//! Every operation takes a [`lac_meter::Meter`]; run with a
//! [`lac_meter::CycleLedger`] to reproduce the paper's Table II rows, or
//! with [`lac_meter::NullMeter`] to just encrypt.
//!
//! # Example
//!
//! ```
//! use lac::{Kem, Params, SoftwareBackend};
//! use lac_meter::NullMeter;
//! use lac_rand::Sha256CtrRng;
//!
//! let kem = Kem::new(Params::lac128());
//! let mut backend = SoftwareBackend::constant_time();
//! let mut rng = Sha256CtrRng::seed_from_u64(7);
//! let mut meter = NullMeter;
//!
//! let (pk, sk) = kem.keygen(&mut rng, &mut backend, &mut meter);
//! let (ct, secret_tx) = kem.encapsulate(&mut rng, &pk, &mut backend, &mut meter);
//! let secret_rx = kem.decapsulate(&sk, &ct, &mut backend, &mut meter);
//! assert_eq!(secret_tx, secret_rx);
//! ```

#![warn(missing_docs)]

mod backend;
mod kem;
mod keys;
mod params;
mod pke;
mod sample;

pub use backend::{AcceleratedBackend, Backend, BackendKind, BchDecoderKind, SoftwareBackend};
pub use kem::{Kem, KemKeyPair, KemPublicKey, KemSecretKey, SharedSecret};
pub use keys::{Ciphertext, PublicKey, SecretKey};
pub use lac_bch::Decoded;
pub use params::{Params, SecurityCategory};
pub use pke::Lac;
pub use sample::SamplerKind;

use std::error::Error;
use std::fmt;

/// Plaintext / shared-secret size in bytes (256-bit messages).
pub const MESSAGE_BYTES: usize = 32;

/// Seed size in bytes.
pub const SEED_BYTES: usize = 32;

/// Errors from deserializing keys and ciphertexts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte string has the wrong length for this parameter set.
    Length {
        /// Expected number of bytes.
        expected: usize,
        /// Number of bytes provided.
        got: usize,
    },
    /// A coefficient byte is outside its valid range.
    Coefficient {
        /// Byte offset of the offending coefficient.
        index: usize,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { expected, got } => {
                write!(f, "expected {expected} bytes, got {got}")
            }
            DecodeError::Coefficient { index } => {
                write!(f, "invalid coefficient at byte {index}")
            }
        }
    }
}

impl Error for DecodeError {}
