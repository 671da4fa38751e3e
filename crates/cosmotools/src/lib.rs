//! # cosmotools — the in-situ analysis framework
//!
//! The reproduction of HACC's CosmoTools layer (paper §3.1): the
//! [`InSituAlgorithm`] trait (`SetParameters` / `ShouldExecute` / `Execute`),
//! the [`InSituAnalysisManager`] called from the simulation's main loop, an
//! INI-style input deck ([`config::Config`]), the Level 1/2/3 data hierarchy
//! ([`levels`]), a GenericIO-like checksummed binary container ([`genio`]),
//! concrete analysis tasks (power spectrum, halo finder with the in-situ /
//! off-line center split, SO masses, subsampling, rendering), and the stand-alone off-line
//! driver ([`driver`]) used by the co-scheduled jobs.

#![warn(missing_docs)]
// 3-vector component loops read better indexed; the lint fires on them.
#![allow(clippy::needless_range_loop)]

pub mod algorithms;
pub mod config;
pub mod driver;
pub mod genio;
pub mod insitu;
pub mod levels;
pub mod render;

pub use algorithms::{
    compute_power_spectrum, find_halos_with_centers, HaloFinderTask, PowerBin, PowerSpectrumTask,
    SoMassTask, SubsampleTask,
};
pub use config::{Config, ConfigError};
pub use driver::{
    analyze_level1, centers_from_catalog, centers_from_level2, decode_centers, encode_centers,
    merge_center_sets, write_level2_container, CenterRecord, CENTER_RECORD_BYTES,
};
pub use genio::{
    assemble_chunks, chunk_container, container_digest, file_digest, image_digest, read_container,
    read_file, read_image, write_container, write_file, write_file_digest, write_image,
    write_image_file, Container, GenioError, SnapshotMeta, IMAGE_HEADER_BYTES,
};
pub use insitu::{
    AnalysisContext, ExecutionRecord, InSituAlgorithm, InSituAnalysisManager, Product,
};
pub use levels::{level1_bytes, level2_bytes, level3_center_bytes};
pub use render::{
    decode_pgm, encode_pgm, lod_priority, lod_select, project_density, render_frame,
    render_projection, tone_map, Axis, DensityRenderTask, ImageFrame, LodCache, RenderParams,
    PARTICLE_RENDER_BYTES,
};
