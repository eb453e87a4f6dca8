//! Independent reference implementations used as simulation oracles.
//!
//! Everything here is written from scratch against the published
//! specifications (RFC 1321 for MD5, Schneier's paper for Blowfish, FIPS-197
//! for AES) — no external crypto crates — so that agreement between a
//! simulated kernel and its reference is meaningful evidence of simulator
//! correctness rather than a shared-code tautology.
//!
//! The one table shipped as data is Blowfish's: [`pi`] holds the 1042
//! fractional words of π as constants. They are not copied from another
//! implementation: `tests/pi_check.rs` generates them from scratch with
//! the Bailey–Borwein–Plouffe formula and pins every word.

pub mod aes;
pub mod blowfish;
pub mod md5;
pub mod pi;
pub mod shade;
pub mod transform;
