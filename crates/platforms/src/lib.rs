//! # sgl-platforms — neuromorphic platform survey and energy models
//!
//! The data behind Table 3 (Appendix A): current scalable neuromorphic
//! platforms (TrueNorth, Loihi, SpiNNaker 1/2) next to a conventional CPU
//! (Intel Core i7-9700T), plus the energy model the paper's efficiency
//! argument rests on — neuromorphic hardware consumes energy per *spike
//! event* (the pJ/spike column), while a CPU burns its TDP continuously.
//!
//! Spike counts come from the `sgl-snn` engines' `spike_events` counter
//! (`SimStats::spike_events`; this crate has no dependency on the
//! simulator — it consumes plain counts);
//! conventional operation counts from the instrumented baselines in
//! `sgl-graph`. Combining the two with this module's constants regenerates
//! the Table 3 comparison and powers the `table3` bench binary.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Indexed loops over several parallel per-node arrays are the house style
// for the graph/neuron kernels here; iterator zips would obscure them.
#![allow(clippy::needless_range_loop)]

pub mod constraints;
pub mod placement;

/// Hardware design style.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Design {
    /// Full-custom neuromorphic silicon.
    Asic,
    /// ARM-core-based many-core system.
    Arm,
    /// Conventional general-purpose CPU.
    Cpu,
}

/// One row of Table 3.
#[derive(Clone, Copy, Debug)]
pub struct Platform {
    /// Platform name.
    pub name: &'static str,
    /// Developing organisation.
    pub organisation: &'static str,
    /// Design style.
    pub design: Design,
    /// Process node in nanometres.
    pub process_nm: u32,
    /// Clock description (free text in the paper).
    pub clock: &'static str,
    /// Neurons per core (`None` where the paper lists per-chip or N/A).
    pub neurons_per_core: Option<u32>,
    /// Cores per chip (`None` where not applicable).
    pub cores_per_chip: Option<u32>,
    /// Energy per spike event in picojoules (`None` for the CPU or where
    /// unpublished).
    pub pj_per_spike: Option<f64>,
    /// Approximate running power in watts (per chip).
    pub power_watts: f64,
}

/// Table 3's platforms, in the paper's column order.
pub const PLATFORMS: [Platform; 5] = [
    Platform {
        name: "TrueNorth",
        organisation: "IBM",
        design: Design::Asic,
        process_nm: 28,
        clock: "1 KHz",
        neurons_per_core: Some(256),
        cores_per_chip: Some(4096),
        pj_per_spike: Some(26.0),
        power_watts: 0.11, // 70–150 mW per chip; midpoint
    },
    Platform {
        name: "Loihi",
        organisation: "Intel",
        design: Design::Asic,
        process_nm: 14,
        clock: "asynchronous (2.1 ns within-tile spike latency)",
        neurons_per_core: Some(1024),
        cores_per_chip: Some(128),
        pj_per_spike: Some(23.6),
        power_watts: 0.45,
    },
    Platform {
        name: "SpiNNaker 1",
        organisation: "U. Manchester",
        design: Design::Arm,
        process_nm: 130,
        clock: "200 MHz class",
        neurons_per_core: Some(1000),
        cores_per_chip: Some(16),
        pj_per_spike: Some(7000.0), // 6–8 nJ
        power_watts: 1.0,
    },
    Platform {
        name: "SpiNNaker 2",
        organisation: "U. Manchester",
        design: Design::Arm,
        process_nm: 22,
        clock: "100–600 MHz (0.45–0.60 V)",
        neurons_per_core: None, // ≈ 800k per chip
        cores_per_chip: None,
        pj_per_spike: None,
        power_watts: 0.72,
    },
    Platform {
        name: "Core i7-9700T",
        organisation: "Intel",
        design: Design::Cpu,
        process_nm: 14,
        clock: "4.30 GHz (max turbo)",
        neurons_per_core: None,
        cores_per_chip: None,
        pj_per_spike: None,
        power_watts: 35.0, // TDP
    },
];

/// Looks a platform up by name.
#[must_use]
pub fn by_name(name: &str) -> Option<&'static Platform> {
    PLATFORMS.iter().find(|p| p.name == name)
}

impl Platform {
    /// Energy in joules for a spiking workload of `spike_events` spikes
    /// (`None` for platforms without a published pJ/spike figure).
    #[must_use]
    pub fn spike_energy_joules(&self, spike_events: u64) -> Option<f64> {
        self.pj_per_spike.map(|pj| pj * 1e-12 * spike_events as f64)
    }

    /// Crude CPU energy model: TDP divided by peak ops/second from the
    /// clock — ≈ 8 nJ per elementary operation for the i7-9700T. Only
    /// meaningful for [`Design::Cpu`] rows.
    #[must_use]
    pub fn cpu_energy_per_op_joules(&self) -> Option<f64> {
        matches!(self.design, Design::Cpu).then(|| self.power_watts / 4.30e9)
    }
}

/// An energy comparison for one workload: spiking spikes vs conventional
/// elementary operations.
#[derive(Clone, Copy, Debug)]
pub struct EnergyComparison {
    /// Spike events of the neuromorphic run.
    pub spike_events: u64,
    /// Elementary operations of the conventional run.
    pub conventional_ops: u64,
    /// Neuromorphic energy on the chosen platform (joules).
    pub spiking_joules: f64,
    /// CPU energy (joules).
    pub cpu_joules: f64,
}

impl EnergyComparison {
    /// Compares a spiking workload on `platform` against a conventional
    /// workload on the Table 3 CPU.
    ///
    /// # Examples
    /// ```
    /// use sgl_platforms::{by_name, EnergyComparison};
    /// let loihi = by_name("Loihi").unwrap();
    /// let cmp = EnergyComparison::new(loihi, 1_000, 1_000);
    /// assert!(cmp.advantage() > 100.0); // pJ spikes vs nJ CPU ops
    /// ```
    ///
    /// # Panics
    /// Panics if `platform` lacks a pJ/spike figure.
    #[must_use]
    pub fn new(platform: &Platform, spike_events: u64, conventional_ops: u64) -> Self {
        let cpu = by_name("Core i7-9700T").expect("CPU row present");
        Self {
            spike_events,
            conventional_ops,
            spiking_joules: platform
                .spike_energy_joules(spike_events)
                .expect("platform has pJ/spike"),
            cpu_joules: cpu.cpu_energy_per_op_joules().expect("cpu row") * conventional_ops as f64,
        }
    }

    /// CPU-to-spiking energy ratio (> 1 means the spiking run is cheaper).
    #[must_use]
    pub fn advantage(&self) -> f64 {
        self.cpu_joules / self.spiking_joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_five_rows_with_paper_values() {
        assert_eq!(PLATFORMS.len(), 5);
        let tn = by_name("TrueNorth").unwrap();
        assert_eq!(tn.process_nm, 28);
        assert_eq!(tn.neurons_per_core, Some(256));
        assert_eq!(tn.cores_per_chip, Some(4096));
        assert_eq!(tn.pj_per_spike, Some(26.0));
        let loihi = by_name("Loihi").unwrap();
        assert_eq!(loihi.neurons_per_core, Some(1024));
        assert_eq!(loihi.cores_per_chip, Some(128));
    }

    #[test]
    fn neuron_density_dwarfs_core_counts() {
        // §2.3's scalability argument: 128K–1M neurons per chip vs 8 CPU
        // cores.
        for name in ["TrueNorth", "Loihi"] {
            let p = by_name(name).unwrap();
            let per_chip =
                u64::from(p.neurons_per_core.unwrap()) * u64::from(p.cores_per_chip.unwrap());
            assert!(per_chip >= 128 * 1024, "{name}: {per_chip}");
        }
    }

    #[test]
    fn spike_energy_scales_linearly() {
        let loihi = by_name("Loihi").unwrap();
        let e1 = loihi.spike_energy_joules(1_000).unwrap();
        let e2 = loihi.spike_energy_joules(2_000).unwrap();
        assert!((e2 / e1 - 2.0).abs() < 1e-12);
        assert!((e1 - 23.6e-9).abs() < 1e-15);
    }

    #[test]
    fn cpu_energy_per_op_is_nanojoule_scale() {
        let cpu = by_name("Core i7-9700T").unwrap();
        let e = cpu.cpu_energy_per_op_joules().unwrap();
        assert!(e > 1e-9 && e < 1e-8, "{e}");
        assert!(by_name("Loihi")
            .unwrap()
            .cpu_energy_per_op_joules()
            .is_none());
    }

    #[test]
    fn comparison_shows_orders_of_magnitude_advantage() {
        // Equal spike and op counts: Loihi at 23.6 pJ/spike vs ~8.1 nJ/op
        // is ~340x. "energy consumption orders of magnitude lower" (§1).
        let loihi = by_name("Loihi").unwrap();
        let cmp = EnergyComparison::new(loihi, 1_000_000, 1_000_000);
        assert!(cmp.advantage() > 100.0, "advantage {}", cmp.advantage());
    }

    #[test]
    fn unknown_platform_is_none() {
        assert!(by_name("Akida").is_none());
    }
}
