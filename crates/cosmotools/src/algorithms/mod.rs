//! Concrete in-situ analysis algorithms.

pub mod halofinder;
pub mod haloprops;
pub mod powerspectrum;
pub mod subhalos;
pub mod subsample;

pub use halofinder::{find_halos_with_centers, HaloFinderTask};
pub use haloprops::HaloPropertiesTask;
pub use powerspectrum::{
    compute_power_spectrum, distributed_power_spectrum, PowerBin, PowerSpectrumTask,
};
pub use subhalos::{SoMassTask, SubhaloTask};
pub use subsample::SubsampleTask;
