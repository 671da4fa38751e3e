//! Concrete in-situ analysis algorithms.

pub mod halofinder;
pub mod powerspectrum;
pub mod somass;
pub mod subsample;

pub use halofinder::{find_halos_with_centers, HaloFinderTask};
pub use powerspectrum::{compute_power_spectrum, PowerBin, PowerSpectrumTask};
pub use somass::SoMassTask;
pub use subsample::SubsampleTask;
