//! Execution backends for the NewHope baseline: pure software vs the
//! co-processor configuration of reference \[8\] (NTT accelerator + Keccak
//! accelerator, loosely coupled).

use crate::ntt::Ntt;
use crate::ntt_unit::NttUnit;
use lac_hw::KeccakUnit;
use lac_keccak::Sponge;
use lac_meter::Meter;

/// The substrate NewHope runs on.
pub trait NhBackend {
    /// SHAKE128 expansion of `seed ‖ domain` into `out`.
    fn xof_expand(&mut self, seed: &[u8], domain: u8, out: &mut [u8], meter: &mut dyn Meter);

    /// Forward negacyclic NTT.
    fn ntt_forward(&mut self, ntt: &Ntt, poly: &[u16], meter: &mut dyn Meter) -> Vec<u16>;

    /// Inverse negacyclic NTT.
    fn ntt_inverse(&mut self, ntt: &Ntt, values: &[u16], meter: &mut dyn Meter) -> Vec<u16>;

    /// Report label for harness output.
    fn label(&self) -> &'static str;
}

/// Pure-software NewHope (portable C cost profile).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SoftwareBackend;

impl SoftwareBackend {
    /// Create the software backend.
    pub fn new() -> Self {
        Self
    }
}

impl NhBackend for SoftwareBackend {
    fn xof_expand(&mut self, seed: &[u8], domain: u8, out: &mut [u8], mut meter: &mut dyn Meter) {
        let mut sponge = Sponge::new(168, 0x1f);
        sponge.absorb_metered(seed, &mut meter);
        sponge.absorb_metered(&[domain], &mut meter);
        sponge.squeeze_metered(out, &mut meter);
    }

    fn ntt_forward(&mut self, ntt: &Ntt, poly: &[u16], mut meter: &mut dyn Meter) -> Vec<u16> {
        ntt.forward(poly, &mut meter)
    }

    fn ntt_inverse(&mut self, ntt: &Ntt, values: &[u16], mut meter: &mut dyn Meter) -> Vec<u16> {
        ntt.inverse(values, &mut meter)
    }

    fn label(&self) -> &'static str {
        "software"
    }
}

/// The \[8\] co-processor configuration: NTT and Keccak accelerators,
/// loosely coupled (bus transfers dominate the NTT unit's latency — the
/// integration style the paper contrasts with its own tightly-coupled
/// PQ-ALU).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceleratedBackend;

impl AcceleratedBackend {
    /// Create the accelerated backend.
    pub fn new() -> Self {
        Self
    }
}

impl NhBackend for AcceleratedBackend {
    fn xof_expand(&mut self, seed: &[u8], domain: u8, out: &mut [u8], mut meter: &mut dyn Meter) {
        KeccakUnit::new().expand(seed, domain, out, &mut meter);
    }

    fn ntt_forward(&mut self, ntt: &Ntt, poly: &[u16], mut meter: &mut dyn Meter) -> Vec<u16> {
        NttUnit::new().forward(ntt, poly, &mut meter)
    }

    fn ntt_inverse(&mut self, ntt: &Ntt, values: &[u16], mut meter: &mut dyn Meter) -> Vec<u16> {
        NttUnit::new().inverse(ntt, values, &mut meter)
    }

    fn label(&self) -> &'static str {
        "opt. [8]-style"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac_meter::{CycleLedger, NullMeter};

    #[test]
    fn backends_agree_on_ntt() {
        let ntt = Ntt::new(512);
        let poly: Vec<u16> = (0..512u32).map(|i| (i * 13 % 12289) as u16).collect();
        let mut sw = SoftwareBackend::new();
        let mut hw = AcceleratedBackend::new();
        let a = sw.ntt_forward(&ntt, &poly, &mut NullMeter);
        let b = hw.ntt_forward(&ntt, &poly, &mut NullMeter);
        assert_eq!(a, b);
        assert_eq!(
            sw.ntt_inverse(&ntt, &a, &mut NullMeter),
            hw.ntt_inverse(&ntt, &b, &mut NullMeter)
        );
    }

    #[test]
    fn backends_agree_on_xof() {
        let mut sw = SoftwareBackend::new();
        let mut hw = AcceleratedBackend::new();
        let mut a = [0u8; 100];
        let mut b = [0u8; 100];
        sw.xof_expand(&[7u8; 32], 3, &mut a, &mut NullMeter);
        hw.xof_expand(&[7u8; 32], 3, &mut b, &mut NullMeter);
        assert_eq!(a, b);
    }

    #[test]
    fn accelerated_ntt_is_cheaper_than_software() {
        let ntt = Ntt::new(1024);
        let poly = vec![1u16; 1024];
        let mut sw_cost = CycleLedger::new();
        SoftwareBackend::new().ntt_forward(&ntt, &poly, &mut sw_cost);
        let mut hw_cost = CycleLedger::new();
        AcceleratedBackend::new().ntt_forward(&ntt, &poly, &mut hw_cost);
        assert!(hw_cost.total() < sw_cost.total());
        // ... but stays in the tens of thousands: loose coupling pays bus
        // transfers (the paper's [8] reports 24,609 cycles per NTT).
        assert!(
            (15_000..35_000).contains(&hw_cost.total()),
            "{}",
            hw_cost.total()
        );
    }
}
