//! The catalog of virtual machine instance types used in the paper's evaluation.
//!
//! The main experiments run on `m5.8xlarge`; Fig. 15 sweeps across additional sizes and
//! classes. Smaller VM sizes host more co-tenants per physical machine, so they expose
//! the tenant to proportionally more interference; specialised classes (compute-,
//! memory-, storage-optimised) shift both the baseline speed and the interference level.

use std::fmt;

/// An AWS-style VM instance type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(non_camel_case_types)]
pub enum VmType {
    /// General purpose, 2 vCPUs.
    M5Large,
    /// General purpose, 8 vCPUs.
    M5_2xlarge,
    /// General purpose, 32 vCPUs (the paper's main testbed).
    M5_8xlarge,
    /// General purpose, 64 vCPUs.
    M5_16xlarge,
    /// General purpose, 96 vCPUs.
    M5_24xlarge,
    /// Compute optimised, 36 vCPUs.
    C5_9xlarge,
    /// Memory optimised, 32 vCPUs.
    R5_8xlarge,
    /// Storage optimised, 32 vCPUs.
    I3_8xlarge,
}

impl VmType {
    /// Every VM type evaluated in the paper, in the order of Fig. 15.
    pub const ALL: [VmType; 8] = [
        VmType::M5Large,
        VmType::M5_2xlarge,
        VmType::M5_8xlarge,
        VmType::M5_16xlarge,
        VmType::M5_24xlarge,
        VmType::C5_9xlarge,
        VmType::R5_8xlarge,
        VmType::I3_8xlarge,
    ];

    /// Number of virtual CPUs, which is also the default number of players `P` that play
    /// a game together on this VM.
    pub fn vcpus(&self) -> usize {
        match self {
            VmType::M5Large => 2,
            VmType::M5_2xlarge => 8,
            VmType::M5_8xlarge => 32,
            VmType::M5_16xlarge => 64,
            VmType::M5_24xlarge => 96,
            VmType::C5_9xlarge => 36,
            VmType::R5_8xlarge => 32,
            VmType::I3_8xlarge => 32,
        }
    }

    /// Multiplier applied to the ambient interference level.
    ///
    /// Smaller instances share a physical host with more third-party tenants, so they see
    /// more noise; very large instances occupy most of a host and see less.
    pub fn interference_factor(&self) -> f64 {
        match self {
            VmType::M5Large => 1.9,
            VmType::M5_2xlarge => 1.45,
            VmType::M5_8xlarge => 1.0,
            VmType::M5_16xlarge => 0.75,
            VmType::M5_24xlarge => 0.6,
            VmType::C5_9xlarge => 0.95,
            VmType::R5_8xlarge => 1.05,
            VmType::I3_8xlarge => 1.15,
        }
    }

    /// Multiplier applied to the *dedicated-environment* execution time of a
    /// configuration when it runs on this VM (hardware speed difference relative to the
    /// m5.8xlarge baseline).
    pub fn speed_factor(&self) -> f64 {
        match self {
            VmType::M5Large => 1.25,
            VmType::M5_2xlarge => 1.1,
            VmType::M5_8xlarge => 1.0,
            VmType::M5_16xlarge => 0.97,
            VmType::M5_24xlarge => 0.95,
            VmType::C5_9xlarge => 0.88,
            VmType::R5_8xlarge => 1.02,
            VmType::I3_8xlarge => 1.05,
        }
    }

    /// On-demand price per hour in USD (approximate us-east-1 figures), used only for
    /// the cost-amortisation discussion in the evaluation.
    pub fn hourly_price_usd(&self) -> f64 {
        match self {
            VmType::M5Large => 0.096,
            VmType::M5_2xlarge => 0.384,
            VmType::M5_8xlarge => 1.536,
            VmType::M5_16xlarge => 3.072,
            VmType::M5_24xlarge => 4.608,
            VmType::C5_9xlarge => 1.53,
            VmType::R5_8xlarge => 2.016,
            VmType::I3_8xlarge => 2.496,
        }
    }

    /// Parses a canonical AWS-style name (see [`name`](Self::name)) back into a VM
    /// type; `None` for names outside the catalog.
    pub fn from_name(name: &str) -> Option<VmType> {
        Self::ALL.into_iter().find(|vm| vm.name() == name)
    }

    /// The canonical AWS-style name, e.g. `"m5.8xlarge"`.
    pub fn name(&self) -> &'static str {
        match self {
            VmType::M5Large => "m5.large",
            VmType::M5_2xlarge => "m5.2xlarge",
            VmType::M5_8xlarge => "m5.8xlarge",
            VmType::M5_16xlarge => "m5.16xlarge",
            VmType::M5_24xlarge => "m5.24xlarge",
            VmType::C5_9xlarge => "c5.9xlarge",
            VmType::R5_8xlarge => "r5.8xlarge",
            VmType::I3_8xlarge => "i3.8xlarge",
        }
    }
}

impl fmt::Display for VmType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Default for VmType {
    /// The paper's main testbed instance.
    fn default() -> Self {
        VmType::M5_8xlarge
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_all_paper_vms() {
        assert_eq!(VmType::ALL.len(), 8);
        let names: Vec<&str> = VmType::ALL.iter().map(|v| v.name()).collect();
        assert!(names.contains(&"m5.8xlarge"));
        assert!(names.contains(&"c5.9xlarge"));
        assert!(names.contains(&"i3.8xlarge"));
    }

    #[test]
    fn baseline_vm_matches_paper_setup() {
        let vm = VmType::default();
        assert_eq!(vm, VmType::M5_8xlarge);
        assert_eq!(vm.vcpus(), 32);
        assert_eq!(vm.interference_factor(), 1.0);
        assert_eq!(vm.speed_factor(), 1.0);
    }

    #[test]
    fn smaller_vms_have_more_interference() {
        assert!(VmType::M5Large.interference_factor() > VmType::M5_8xlarge.interference_factor());
        assert!(
            VmType::M5_8xlarge.interference_factor() > VmType::M5_24xlarge.interference_factor()
        );
    }

    #[test]
    fn vcpus_monotone_within_m5_family() {
        assert!(VmType::M5Large.vcpus() < VmType::M5_2xlarge.vcpus());
        assert!(VmType::M5_2xlarge.vcpus() < VmType::M5_8xlarge.vcpus());
        assert!(VmType::M5_8xlarge.vcpus() < VmType::M5_16xlarge.vcpus());
        assert!(VmType::M5_16xlarge.vcpus() < VmType::M5_24xlarge.vcpus());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(VmType::C5_9xlarge.to_string(), "c5.9xlarge");
    }

    #[test]
    fn names_round_trip_through_from_name() {
        for vm in VmType::ALL {
            assert_eq!(VmType::from_name(vm.name()), Some(vm));
        }
        assert_eq!(VmType::from_name("t2.nano"), None);
    }

    #[test]
    fn prices_scale_with_size() {
        assert!(VmType::M5Large.hourly_price_usd() < VmType::M5_24xlarge.hourly_price_usd());
    }
}
