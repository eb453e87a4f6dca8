//! The oracle for Blowfish's π tables.
//!
//! `dlp_kernels::refimpl::pi` ships the first 1042 fractional 32-bit words
//! of π as constants. This test regenerates them from scratch with the
//! Bailey–Borwein–Plouffe formula:
//!
//! ```text
//! π = Σ_{k≥0} 16^(-k) ( 4/(8k+1) − 2/(8k+4) − 1/(8k+5) − 1/(8k+6) )
//! ```
//!
//! which yields hex digit *n+1* from a handful of modular exponentiations —
//! exact integer arithmetic, no floating-point drift for the digit counts we
//! need — and pins every word of the constants against it.
//!
//! [`pi_hex_digit`] is the reference single-digit extractor. [`pi_words`]
//! streams all digits in one pass: re-running the digit extractor per digit
//! is O(d² log d) over the 8336 digits Blowfish needs, so the streaming path
//! carries the per-term residues between positions and amortizes one exact
//! series evaluation over `BATCH` digits. The ignored exhaustive test checks
//! the stream and the constants against the exact extractor digit by digit:
//!
//! ```sh
//! cargo test --release -p dlp-kernels --test pi_check -- --ignored
//! ```

use dlp_kernels::refimpl::pi::{P_INIT, S_INIT};

/// Words Blowfish initializes from π: the 18-entry P-array and four
/// 256-entry S-boxes.
const TABLE_WORDS: usize = 18 + 4 * 256;

/// Modular exponentiation `16^p mod m` (binary method).
fn pow16_mod(mut p: u64, m: u64) -> u64 {
    if m == 1 {
        return 0;
    }
    let mut result = 1u64 % m;
    let mut base = 16u64 % m;
    while p > 0 {
        if p & 1 == 1 {
            result = result * base % m;
        }
        base = base * base % m;
        p >>= 1;
    }
    result
}

/// The fractional part of `Σ_k 16^(n-k)/(8k+j)` for the BBP series term.
fn series(j: u64, n: u64) -> f64 {
    let mut sum = 0.0f64;
    // Left sum: exact modular arithmetic.
    for k in 0..=n {
        let denom = 8 * k + j;
        sum += pow16_mod(n - k, denom) as f64 / denom as f64;
        sum -= sum.floor();
    }
    // Right tail: converges fast.
    let mut k = n + 1;
    loop {
        let term = 16f64.powi(-((k - n) as i32)) / (8 * k + j) as f64;
        if term < 1e-17 {
            break;
        }
        sum += term;
        sum -= sum.floor();
        k += 1;
    }
    sum
}

/// Hex digit `n` (0-based) of π's fractional part.
fn pi_hex_digit(n: u64) -> u8 {
    let x = 4.0 * series(1, n) - 2.0 * series(4, n) - series(5, n) - series(6, n);
    let frac = x - x.floor();
    (frac * 16.0) as u8
}

/// Digits extracted per exact series evaluation by the streaming path.
///
/// The f64 series accumulation carries ~1e-12 absolute error over the digit
/// counts we use, so reading `BATCH` hex digits (16^-BATCH = 2^-16 spacing)
/// from one evaluation leaves nine decimal orders of headroom before a
/// digit could flip; [`streamed_digits_match_reference`] checks the stream
/// against the exact extractor digit by digit.
const BATCH: u64 = 4;

/// One BBP series `Σ_k 16^(n-k)/(8k+j)` evaluated at a stream of positions
/// `n = 0, BATCH, 2·BATCH, …`.
///
/// The residues `16^(n-k) mod (8k+j)` are carried between positions — one
/// modular multiply by the cached `16^BATCH mod (8k+j)` each — instead of
/// recomputed by modular exponentiation, and the f64 accumulation loop is
/// kept identical to [`series`] so every position both paths evaluate
/// agrees bit for bit.
struct SeriesStream {
    j: u64,
    /// `(denom, residue, step)` per term `k`, where `denom = 8k+j`,
    /// `residue = 16^(n-k) mod denom` for the last evaluated position `n`,
    /// and `step = 16^BATCH mod denom`.
    terms: Vec<(u64, u64, u64)>,
    pos: Option<u64>,
}

impl SeriesStream {
    fn new(j: u64) -> Self {
        Self { j, terms: Vec::new(), pos: None }
    }

    /// Fractional part of the series at position `n`, which must advance by
    /// exactly `BATCH` between calls (starting at 0).
    fn eval(&mut self, n: u64) -> f64 {
        match self.pos {
            None => debug_assert_eq!(n, 0, "stream must start at position 0"),
            Some(p) => {
                debug_assert_eq!(n, p + BATCH, "stream must advance by BATCH");
                for (denom, residue, step) in &mut self.terms {
                    // residue, step < denom < 2^17, so the product fits u64.
                    *residue = *residue * *step % *denom;
                }
            }
        }
        for k in self.terms.len() as u64..=n {
            let denom = 8 * k + self.j;
            self.terms.push((denom, pow16_mod(n - k, denom), pow16_mod(BATCH, denom)));
        }
        self.pos = Some(n);
        let mut sum = 0.0f64;
        for &(denom, residue, _) in &self.terms {
            sum += residue as f64 / denom as f64;
            sum -= sum.floor();
        }
        // Right tail, exactly as in `series`.
        let mut k = n + 1;
        loop {
            let term = 16f64.powi(-((k - n) as i32)) / (8 * k + self.j) as f64;
            if term < 1e-17 {
                break;
            }
            sum += term;
            sum -= sum.floor();
            k += 1;
        }
        sum
    }
}

/// The first `n_digits` fractional hex digits of π, streamed.
///
/// Every `BATCH`-th digit position gets an exact series evaluation
/// (bit-identical to [`pi_hex_digit`]); the digits in between are read from
/// the next fraction bits of the same evaluation.
fn pi_hex_digits(n_digits: usize) -> Vec<u8> {
    let mut streams =
        [SeriesStream::new(1), SeriesStream::new(4), SeriesStream::new(5), SeriesStream::new(6)];
    let mut out = Vec::with_capacity(n_digits);
    let mut n = 0u64;
    while out.len() < n_digits {
        let [s1, s4, s5, s6] = &mut streams;
        let x = 4.0 * s1.eval(n) - 2.0 * s4.eval(n) - s5.eval(n) - s6.eval(n);
        let mut frac = x - x.floor();
        for _ in 0..BATCH.min((n_digits - out.len()) as u64) {
            frac *= 16.0;
            let digit = frac.floor();
            out.push(digit as u8);
            frac -= digit;
        }
        n += BATCH;
    }
    out
}

/// The first `n` fractional hex digits of π packed into 32-bit words (8
/// digits per word, most significant first) — the layout Blowfish's
/// initialization tables use.
fn pi_words(n_words: usize) -> Vec<u32> {
    pi_hex_digits(n_words * 8)
        .chunks(8)
        .map(|c| c.iter().fold(0u32, |w, &d| (w << 4) | u32::from(d)))
        .collect()
}

/// The shipped constants in generation order: P-array, then S0..S3.
fn shipped_words() -> Vec<u32> {
    P_INIT.iter().chain(S_INIT.iter().flatten()).copied().collect()
}

#[test]
fn shipped_tables_match_the_bbp_generator_word_for_word() {
    let shipped = shipped_words();
    let generated = pi_words(TABLE_WORDS);
    assert_eq!(shipped.len(), TABLE_WORDS);
    assert_eq!(generated.len(), TABLE_WORDS);
    if let Some(i) = (0..TABLE_WORDS).find(|&i| shipped[i] != generated[i]) {
        let place = if i < 18 {
            format!("P_INIT[{i}]")
        } else {
            format!("S_INIT[{}][{}]", (i - 18) / 256, (i - 18) % 256)
        };
        panic!(
            "π word {i} ({place}) is {:08x}, the BBP generator gives {:08x}",
            shipped[i], generated[i]
        );
    }
}

#[test]
fn check_pi_tables_head() {
    let expect: [u32; 20] = [
        0x243f6a88, 0x85a308d3, 0x13198a2e, 0x03707344, 0xa4093822, 0x299f31d0,
        0x082efa98, 0xec4e6c89, 0x452821e6, 0x38d01377, 0xbe5466cf, 0x34e90c6c,
        0xc0ac29b7, 0xc97c50dd, 0x3f84d5b5, 0xb5470917, 0x9216d5d9, 0x8979fb1b,
        0xd1310ba6, 0x98dfb5ac,
    ];
    for (name, w) in [("generated", pi_words(20)), ("shipped", shipped_words())] {
        for (i, (&g, &e)) in w.iter().zip(expect.iter()).enumerate() {
            assert_eq!(g, e, "{name} word {i}: got {g:08x} want {e:08x}");
        }
    }
}

#[test]
fn check_pi_tables_tail() {
    // The last Blowfish S-box word (S3[255]) is 0x3ac372e6.
    assert_eq!(S_INIT[3][255], 0x3ac372e6, "got {:08x}", S_INIT[3][255]);
    let w = pi_words(TABLE_WORDS);
    assert_eq!(w[18 + 1023], 0x3ac372e6, "got {:08x}", w[18 + 1023]);
}

#[test]
fn first_digits_are_243f6a88() {
    // π = 3.243F6A8885A308D3... in hex.
    let digits: Vec<u8> = (0..16).map(pi_hex_digit).collect();
    assert_eq!(digits, vec![2, 4, 3, 0xF, 6, 0xA, 8, 8, 8, 5, 0xA, 3, 0, 8, 0xD, 3]);
}

#[test]
fn first_word_matches_blowfish_p0() {
    // Blowfish's P[0] is the first 32 fractional bits of π.
    assert_eq!(pi_words(2), vec![0x243F_6A88, 0x85A3_08D3]);
}

#[test]
fn streamed_digits_match_reference() {
    // The streaming path must agree with the exact per-digit extractor
    // across the whole range Blowfish consumes (8336 digits): check the
    // head, the error-dominated tail, and a stride through the middle.
    let total = TABLE_WORDS * 8;
    let digits = pi_hex_digits(total);
    assert_eq!(digits.len(), total);
    let check = |n: usize| {
        assert_eq!(
            digits[n],
            pi_hex_digit(n as u64),
            "streamed digit {n} diverged from the reference extractor"
        );
    };
    (0..64).for_each(check);
    (total - 48..total).for_each(check);
    (0..total).step_by(257).for_each(check);
}

#[test]
#[ignore = "exhaustive reference comparison is O(d^2 log d); CI runs it in release"]
fn streamed_digits_match_reference_exhaustively() {
    // Checks both the stream and the shipped constants against the exact
    // extractor at every one of the 8336 digits.
    let total = TABLE_WORDS * 8;
    let digits = pi_hex_digits(total);
    let shipped = shipped_words();
    for (n, &d) in digits.iter().enumerate() {
        let exact = pi_hex_digit(n as u64);
        assert_eq!(d, exact, "streamed digit {n} diverged");
        let word = shipped[n / 8];
        let constant = ((word >> (28 - 4 * (n % 8))) & 0xF) as u8;
        assert_eq!(constant, exact, "digit {n} of the shipped tables diverged");
    }
}
