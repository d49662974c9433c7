//! Seed expansion and sampling: `GenA` and the fixed-weight ternary
//! distribution.
//!
//! Both samplers draw their randomness from `lac_sha256::Expander`'s
//! counter-mode stream with each block hashed **through the backend**, so
//! the software profile charges the metered software compression function
//! while the accelerated profiles charge their hash unit's byte-wise I/O
//! protocol. The per-byte, per-draw and per-compare-exchange glue
//! (rejection test, swap, store) is the part the paper does *not*
//! accelerate, which is why `GenA` and `Sample poly` improve far less than
//! the multiplication in Table II. Each loop counts its iterations
//! locally and charges that glue once, in closed form, after the loop:
//! from the bytes drawn in `GenA`, from the draws and the weight in the
//! rejection sampler, and from n alone in the sorting-network sampler.

use crate::backend::Backend;
use crate::SEED_BYTES;
use lac_meter::{Meter, Op, Phase};
use lac_ring::{Poly, TernaryPoly, Q};
use lac_sha256::Expander;

/// Which fixed-weight sampler the scheme uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplerKind {
    /// Rejection sampling (the submission's reference sampler): cheap but
    /// its running time depends on the collision pattern of the secret
    /// positions.
    #[default]
    Rejection,
    /// Bitonic-sorting-network sampler: ~4x the cost, input-independent
    /// operation sequence (the round-2 timing countermeasure).
    ConstantTime,
}

/// Dispatch on the configured sampler.
pub(crate) fn sample_ternary_with<B: Backend + ?Sized>(
    kind: SamplerKind,
    backend: &mut B,
    seed: &[u8; SEED_BYTES],
    domain: u8,
    n: usize,
    weight: usize,
    meter: &mut dyn Meter,
) -> TernaryPoly {
    match kind {
        SamplerKind::Rejection => sample_ternary(backend, seed, domain, n, weight, meter),
        SamplerKind::ConstantTime => sample_ternary_ct(backend, seed, domain, n, weight, meter),
    }
}

/// Next byte of `stream`, each block hashed by `backend` — so the
/// accelerated profiles charge their hash unit.
fn next_byte<B: Backend + ?Sized>(
    stream: &mut Expander,
    backend: &mut B,
    meter: &mut dyn Meter,
) -> u8 {
    stream.next_byte_with(|block| backend.hash(block, meter))
}

/// Two bytes of `stream`, little-endian (see [`next_byte`]).
fn next_u16<B: Backend + ?Sized>(
    stream: &mut Expander,
    backend: &mut B,
    meter: &mut dyn Meter,
) -> u16 {
    let lo = next_byte(stream, backend, meter);
    let hi = next_byte(stream, backend, meter);
    u16::from_le_bytes([lo, hi])
}

/// `GenA`: expand a seed into the public polynomial `a` with coefficients
/// uniform in `[0, q)` via byte-rejection sampling (acceptance 251/256).
///
/// Metered under [`Phase::GenA`].
pub(crate) fn gen_a<B: Backend + ?Sized>(
    backend: &mut B,
    seed: &[u8; SEED_BYTES],
    n: usize,
    meter: &mut dyn Meter,
) -> Poly {
    meter.enter(Phase::GenA);
    let mut stream = Expander::new(seed, 0x41);
    let mut coeffs = Vec::with_capacity(n);
    let mut drawn = 0u64;
    while coeffs.len() < n {
        let b = next_byte(&mut stream, backend, meter);
        drawn += 1;
        if u16::from(b) < Q {
            coeffs.push(b);
        }
    }
    // Per-byte modelling glue: load from the PRG buffer, compare against
    // q, branch; a store per accepted byte.
    meter.charge(Op::Load, drawn);
    meter.charge(Op::Branch, drawn);
    meter.charge(Op::LoopIter, drawn);
    meter.charge(Op::Store, n as u64);
    meter.leave();
    Poly::from_coeffs(coeffs)
}

/// Sample a fixed-weight ternary polynomial: exactly `weight/2` coefficients
/// of +1 and `weight/2` of −1, positions drawn by rejection (redraw on an
/// already-occupied slot), as the round-2 fixed-weight sampler does.
///
/// The cost therefore scales with the **weight h**, not with n — which is
/// why Table II's `Sample poly` is *smaller* for LAC-192 (n = 1024, h = 256)
/// than for LAC-128 (n = 512, h = 256).
///
/// Metered under [`Phase::SamplePoly`].
///
/// # Panics
///
/// Panics if `weight` is odd or exceeds `n`.
pub(crate) fn sample_ternary<B: Backend + ?Sized>(
    backend: &mut B,
    seed: &[u8; SEED_BYTES],
    domain: u8,
    n: usize,
    weight: usize,
    meter: &mut dyn Meter,
) -> TernaryPoly {
    assert!(weight % 2 == 0 && weight <= n, "invalid fixed weight");
    meter.enter(Phase::SamplePoly);
    let mut stream = Expander::new(seed, domain);
    let mut coeffs = vec![0i8; n];
    let mut placed = 0usize;
    let mut draws = 0u64;
    while placed < weight {
        let r = next_u16(&mut stream, backend, meter);
        draws += 1;
        // Multiply-shift range reduction onto [0, n).
        let pos = ((u32::from(r) * n as u32) >> 16) as usize;
        if coeffs[pos] != 0 {
            continue; // occupied: redraw
        }
        coeffs[pos] = if placed < weight / 2 { 1 } else { -1 };
        placed += 1;
    }
    // Per-draw glue: range reduction, occupancy load and check; a store
    // and a sign select per placed coefficient. The draw count follows
    // the collisions, so the charge does too.
    meter.charge(Op::Mul, draws);
    meter.charge(Op::Alu, 2 * draws + weight as u64);
    meter.charge(Op::Load, draws);
    meter.charge(Op::Branch, draws);
    meter.charge(Op::LoopIter, draws);
    meter.charge(Op::Store, weight as u64);
    meter.leave();
    TernaryPoly::from_coeffs(coeffs)
}

/// Constant-time fixed-weight sampler: attach the ±1 tags to random sort
/// keys and run a **bitonic sorting network** — the fixed-topology,
/// branch-free construction the round-2 LAC submission proposes as its
/// timing countermeasure for the sampler (the rejection sampler's cost
/// depends on the collision pattern, i.e. on secret data).
///
/// The network performs exactly n/4·log n·(log n + 1) compare-exchanges
/// regardless of the randomness, so the modelled cost is a function of
/// (n, weight) only. It is ~4x the rejection sampler's cost — the price of
/// the guarantee.
///
/// Metered under [`Phase::SamplePoly`].
///
/// # Panics
///
/// Panics if `weight` is odd, exceeds `n`, or `n` is not a power of two.
pub(crate) fn sample_ternary_ct<B: Backend + ?Sized>(
    backend: &mut B,
    seed: &[u8; SEED_BYTES],
    domain: u8,
    n: usize,
    weight: usize,
    meter: &mut dyn Meter,
) -> TernaryPoly {
    assert!(weight % 2 == 0 && weight <= n, "invalid fixed weight");
    assert!(n.is_power_of_two(), "n must be a power of two");
    meter.enter(Phase::SamplePoly);
    let mut stream = Expander::new(seed, domain);

    // Element = random 30-bit key in the high bits, 2-bit tag in the low
    // bits (01 = +1, 10 = −1, 00 = zero). Sorting by the full word sorts by
    // the random key; the tag rides along.
    let mut elements: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let key = u32::from(next_u16(&mut stream, backend, meter)) << 16
            | u32::from(next_u16(&mut stream, backend, meter));
        let tag: u32 = if i < weight / 2 {
            0b01
        } else if i < weight {
            0b10
        } else {
            0b00
        };
        elements.push((key & !0b11) | tag);
    }
    let n64 = n as u64;
    meter.charge(Op::Alu, 3 * n64);
    meter.charge(Op::Store, n64);
    meter.charge(Op::LoopIter, n64);

    // Bitonic sort: fixed sequence of compare-exchanges, each branchless.
    // Stage (k, j) pairs each i whose bit j is clear with l = i + j.
    let mut k = 2;
    while k <= n {
        let mut j = k / 2;
        while j > 0 {
            for base in (0..n).step_by(2 * j) {
                for i in base..base + j {
                    let l = i + j;
                    let ascending = i & k == 0;
                    let (a, b) = (elements[i], elements[l]);
                    // Branch-free conditional swap.
                    let swap_mask = if (a > b) == ascending { u32::MAX } else { 0 };
                    elements[i] = (a & !swap_mask) | (b & swap_mask);
                    elements[l] = (b & !swap_mask) | (a & swap_mask);
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    // The modelled loop visits all n indices per stage (one loop iteration
    // each) and compare-exchanges the n/2 with l > i: two loads, the
    // comparison, the masked swap, two stores. A network on n = 2^m
    // elements has m(m + 1)/2 stages.
    let log_n = u64::from(n.trailing_zeros());
    let stages = log_n * (log_n + 1) / 2;
    let exchanges = stages * n64 / 2;
    meter.charge(Op::Load, 2 * exchanges);
    meter.charge(Op::Alu, 7 * exchanges);
    meter.charge(Op::Store, 2 * exchanges);
    meter.charge(Op::LoopIter, stages * n64);

    // The tag sequence is now a uniformly random permutation of the tag
    // multiset: read the coefficients off in order.
    let coeffs: Vec<i8> = elements
        .iter()
        .map(|&e| match e & 0b11 {
            0b01 => 1i8,
            0b10 => -1,
            _ => 0,
        })
        .collect();
    meter.charge(Op::Load, n64);
    meter.charge(Op::Alu, 2 * n64);
    meter.charge(Op::Store, n64);
    meter.charge(Op::LoopIter, n64);
    meter.leave();
    TernaryPoly::from_coeffs(coeffs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SoftwareBackend;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn gen_a_is_deterministic_and_in_range() {
        let mut b = SoftwareBackend::reference();
        let seed = [3u8; 32];
        let a1 = gen_a(&mut b, &seed, 512, &mut NullMeter);
        let a2 = gen_a(&mut b, &seed, 512, &mut NullMeter);
        assert_eq!(a1, a2);
        assert!(a1.coeffs().iter().all(|&c| u16::from(c) < Q));
    }

    #[test]
    fn gen_a_differs_across_seeds() {
        let mut b = SoftwareBackend::reference();
        let a1 = gen_a(&mut b, &[0u8; 32], 512, &mut NullMeter);
        let a2 = gen_a(&mut b, &[1u8; 32], 512, &mut NullMeter);
        assert_ne!(a1, a2);
    }

    #[test]
    fn gen_a_roughly_uniform() {
        let mut b = SoftwareBackend::reference();
        let a = gen_a(&mut b, &[9u8; 32], 1024, &mut NullMeter);
        let mean: f64 = a.coeffs().iter().map(|&c| f64::from(c)).sum::<f64>() / a.len() as f64;
        assert!((100.0..150.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn sample_has_exact_weight_and_balance() {
        let mut b = SoftwareBackend::reference();
        for (n, w) in [(512usize, 256usize), (1024, 256), (1024, 512)] {
            let t = sample_ternary(&mut b, &[5u8; 32], 1, n, w, &mut NullMeter);
            assert_eq!(t.weight(), w, "n={n} w={w}");
            let plus = t.coeffs().iter().filter(|&&c| c == 1).count();
            let minus = t.coeffs().iter().filter(|&&c| c == -1).count();
            assert_eq!(plus, w / 2);
            assert_eq!(minus, w / 2);
        }
    }

    #[test]
    fn sample_is_deterministic_per_domain() {
        let mut b = SoftwareBackend::reference();
        let s1 = sample_ternary(&mut b, &[8u8; 32], 1, 512, 256, &mut NullMeter);
        let s2 = sample_ternary(&mut b, &[8u8; 32], 1, 512, 256, &mut NullMeter);
        let s3 = sample_ternary(&mut b, &[8u8; 32], 2, 512, 256, &mut NullMeter);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn positions_spread_over_whole_range() {
        let mut b = SoftwareBackend::reference();
        let t = sample_ternary(&mut b, &[2u8; 32], 1, 512, 256, &mut NullMeter);
        let first_half = t.coeffs()[..256].iter().filter(|&&c| c != 0).count();
        // A pathological sampler would park everything in one half.
        assert!((80..180).contains(&first_half), "{first_half}");
    }

    #[test]
    fn gen_a_cost_matches_shape() {
        // Reference GenA for n=512 lands in the tens of thousands of cycles
        // (paper: 159k with their heavier driver; shape documented in
        // EXPERIMENTS.md).
        let mut b = SoftwareBackend::reference();
        let mut l = CycleLedger::new();
        gen_a(&mut b, &[0u8; 32], 512, &mut l);
        assert!(l.phase_total(Phase::GenA) == l.total());
        assert!((30_000..200_000).contains(&l.total()), "{}", l.total());
    }

    #[test]
    fn sample_cost_charged_to_phase() {
        let mut b = SoftwareBackend::reference();
        let mut l = CycleLedger::new();
        sample_ternary(&mut b, &[0u8; 32], 1, 512, 256, &mut l);
        assert_eq!(l.phase_total(Phase::SamplePoly), l.total());
        assert!(l.total() > 0);
    }

    #[test]
    fn ct_sampler_has_exact_weight_and_balance() {
        let mut b = SoftwareBackend::reference();
        for (n, w) in [(512usize, 256usize), (1024, 256), (1024, 512)] {
            let t = sample_ternary_ct(&mut b, &[5u8; 32], 1, n, w, &mut NullMeter);
            assert_eq!(t.weight(), w, "n={n} w={w}");
            let plus = t.coeffs().iter().filter(|&&c| c == 1).count();
            assert_eq!(plus, w / 2);
        }
    }

    #[test]
    fn ct_sampler_cost_is_seed_independent() {
        let mut b = SoftwareBackend::reference();
        let mut costs = Vec::new();
        for seed_byte in [0u8, 9, 200] {
            let mut l = CycleLedger::new();
            sample_ternary_ct(&mut b, &[seed_byte; 32], 1, 512, 256, &mut l);
            costs.push(l.total());
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]), "{costs:?}");
    }

    #[test]
    fn rejection_sampler_cost_is_seed_dependent() {
        // The contrast that motivates the sorting sampler.
        let mut b = SoftwareBackend::reference();
        let mut costs = std::collections::BTreeSet::new();
        for seed_byte in 0u8..12 {
            let mut l = CycleLedger::new();
            sample_ternary(&mut b, &[seed_byte; 32], 1, 512, 256, &mut l);
            costs.insert(l.total());
        }
        assert!(costs.len() > 1, "rejection sampler cost never varied");
    }

    #[test]
    fn ct_sampler_is_deterministic_and_spread() {
        let mut b = SoftwareBackend::reference();
        let t1 = sample_ternary_ct(&mut b, &[8u8; 32], 1, 512, 256, &mut NullMeter);
        let t2 = sample_ternary_ct(&mut b, &[8u8; 32], 1, 512, 256, &mut NullMeter);
        assert_eq!(t1, t2);
        let first_half = t1.coeffs()[..256].iter().filter(|&&c| c != 0).count();
        assert!((80..180).contains(&first_half), "{first_half}");
    }

    #[test]
    fn ct_sampler_costs_more() {
        let mut b = SoftwareBackend::reference();
        let mut rejection = CycleLedger::new();
        sample_ternary(&mut b, &[1u8; 32], 1, 512, 256, &mut rejection);
        let mut ct = CycleLedger::new();
        sample_ternary_ct(&mut b, &[1u8; 32], 1, 512, 256, &mut ct);
        assert!(ct.total() > 2 * rejection.total());
    }

    #[test]
    #[should_panic(expected = "invalid fixed weight")]
    fn odd_weight_rejected() {
        let mut b = SoftwareBackend::reference();
        sample_ternary(&mut b, &[0u8; 32], 1, 512, 255, &mut NullMeter);
    }
}
