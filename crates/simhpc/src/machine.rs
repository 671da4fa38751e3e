//! Machine and parallel-file-system models.
//!
//! The constants in the presets come from the paper and public system specs:
//! Titan charges 30 core-hours per node-hour, its Lustre file system moved a
//! 20 TB snapshot in ~10 minutes (~33 GB/s effective), Moonlight's M2090 GPUs
//! run the center finder at ~0.55× the speed of Titan's K20X, and the GPU
//! brute-force MBP kernel is ~50× faster than one CPU rank per node.

/// Parallel file system performance model.
///
/// Effective bandwidth grows with the number of participating nodes up to a
/// system-wide peak: `bw = min(peak_bw, per_node_bw × nodes)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSystemSpec {
    /// Aggregate ceiling in bytes/s.
    pub peak_bw: f64,
    /// Per-client-node contribution in bytes/s.
    pub per_node_bw: f64,
    /// Fixed open/close + metadata latency per I/O phase, seconds.
    pub latency: f64,
}

impl FileSystemSpec {
    /// Time in seconds to read or write `bytes` using `nodes` clients.
    pub fn io_time(&self, bytes: f64, nodes: usize) -> f64 {
        assert!(nodes > 0, "I/O needs at least one client node");
        assert!(bytes >= 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        let bw = self.peak_bw.min(self.per_node_bw * nodes as f64);
        self.latency + bytes / bw
    }
}

/// Interconnect model for large data redistribution (all-to-all).
#[derive(Debug, Clone, PartialEq)]
pub struct InterconnectSpec {
    /// Per-node injection bandwidth in bytes/s.
    pub per_node_bw: f64,
    /// Startup latency per exchange phase, seconds.
    pub latency: f64,
}

impl InterconnectSpec {
    /// Time to redistribute `bytes` of data spread over `nodes` nodes
    /// (each node sends/receives ~bytes/nodes).
    pub fn redistribute_time(&self, bytes: f64, nodes: usize) -> f64 {
        assert!(nodes > 0);
        if bytes == 0.0 {
            return 0.0;
        }
        self.latency + (bytes / nodes as f64) / self.per_node_bw
    }

    /// Time for one node to pull `bytes` from a peer's local store — a
    /// point-to-point transfer over a single injection link, the cost the
    /// sharded artifact store charges per remote replica fetch.
    pub fn fetch_time(&self, bytes: f64) -> f64 {
        assert!(bytes >= 0.0);
        if bytes == 0.0 {
            return 0.0;
        }
        self.latency + bytes / self.per_node_bw
    }
}

/// Burst-buffer / NVRAM staging tier (the "separate memory device … shared
/// between the main HPC system and the analysis cluster" of the paper's
/// in-transit variation; none of the 2015 machines had one — §4.2 calls the
/// set-up hypothetical — so presets carry `None` and a future-system preset
/// attaches one).
#[derive(Debug, Clone, PartialEq)]
pub struct BurstBufferSpec {
    /// Per-client bandwidth in bytes/s (NVMe/NVRAM class, ~20× disk).
    pub per_node_bw: f64,
    /// Access latency per staging phase, seconds.
    pub latency: f64,
    /// Capacity in bytes.
    pub capacity: f64,
}

impl BurstBufferSpec {
    /// Time to stage `bytes` through the buffer with `nodes` clients.
    /// Returns `None` if the data exceeds capacity (the workflow must fall
    /// back to the file system).
    pub fn stage_time(&self, bytes: f64, nodes: usize) -> Option<f64> {
        assert!(nodes > 0);
        if bytes > self.capacity {
            return None;
        }
        if bytes == 0.0 {
            return Some(0.0);
        }
        Some(self.latency + bytes / (self.per_node_bw * nodes as f64))
    }
}

/// A compute platform.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Facility name, e.g. `"titan"`.
    pub name: String,
    /// Number of compute nodes.
    pub total_nodes: usize,
    /// Physical cores per node (for reporting; charging uses the factor below).
    pub cores_per_node: usize,
    /// Core-hours charged per node-hour (Titan: 30 because of the GPUs).
    pub charge_factor: f64,
    /// Whether nodes carry GPUs usable by the data-parallel analysis kernels.
    pub has_gpus: bool,
    /// Node compute speed relative to Titan (1.0 = Titan).
    pub node_speed: f64,
    /// Speedup of the GPU data-parallel path over one CPU rank per node
    /// (paper: ~50× for the MBP center finder).
    pub gpu_speedup: f64,
    /// Attached parallel file system.
    pub fs: FileSystemSpec,
    /// Interconnect for redistribution phases.
    pub net: InterconnectSpec,
    /// Optional burst-buffer tier (in-transit staging).
    pub burst_buffer: Option<BurstBufferSpec>,
}

impl MachineSpec {
    /// Core-hours charged for holding `nodes` nodes for `seconds`.
    pub fn charge_core_hours(&self, nodes: usize, seconds: f64) -> f64 {
        nodes as f64 * (seconds / 3600.0) * self.charge_factor
    }

    /// Effective speed multiplier for the portable data-parallel analysis
    /// kernels on this machine (GPU path when available, else CPU path).
    pub fn analysis_speed(&self) -> f64 {
        if self.has_gpus {
            self.node_speed * self.gpu_speedup
        } else {
            self.node_speed
        }
    }
}

/// OLCF Titan: 18,688 CPU/GPU nodes, 30× charge factor, Lustre ("Atlas").
pub fn titan() -> MachineSpec {
    MachineSpec {
        name: "titan".into(),
        total_nodes: 18_688,
        cores_per_node: 16,
        charge_factor: 30.0,
        has_gpus: true,
        node_speed: 1.0,
        gpu_speedup: 50.0,
        fs: FileSystemSpec {
            // Anchors: 20 TB in ~600 s at 16,384 clients (peak ≈ 34 GB/s);
            // 40 GB Level 1 in ~5 s at 32 clients (≈ 250 MB/s per client).
            peak_bw: 34.0e9,
            per_node_bw: 250.0e6,
            latency: 2.0,
        },
        net: InterconnectSpec {
            // Anchor: redistributing the 1024³ Level 1 set (~39 GB) across 32
            // nodes took 435 s (Table 4) → ~2.9 MB/s effective per node; the
            // Q Continuum distribute (20 TB, 16,384 nodes, ~10 min) gives the
            // same per-node rate, so one constant covers both regimes.
            per_node_bw: 2.9e6,
            latency: 1.0,
        },
        burst_buffer: None,
    }
}

/// A hypothetical future Titan with a burst-buffer tier — the machine the
/// paper's in-transit variation needs ("on new architectures that provide
/// burst-buffer capabilities, we will be well prepared", §1).
pub fn titan_with_burst_buffer() -> MachineSpec {
    let mut m = titan();
    m.name = "titan+bb".into();
    m.burst_buffer = Some(BurstBufferSpec {
        per_node_bw: 5.0e9,
        latency: 0.1,
        capacity: 100.0e12,
    });
    m
}

/// OLCF Rhea: the designated analysis cluster — ample queue capacity but no
/// GPUs (paper §3.2).
pub fn rhea() -> MachineSpec {
    MachineSpec {
        name: "rhea".into(),
        total_nodes: 512,
        cores_per_node: 16,
        charge_factor: 16.0,
        has_gpus: false,
        node_speed: 1.1, // newer Xeons than Titan's interlagos, CPU-side
        gpu_speedup: 1.0,
        fs: FileSystemSpec {
            peak_bw: 10.0e9,
            per_node_bw: 1.0e9,
            latency: 2.0,
        },
        net: InterconnectSpec {
            per_node_bw: 40.0e6,
            latency: 1.0,
        },
        burst_buffer: None,
    }
}

/// LANL Moonlight: GPU cluster used for the Q Continuum large-halo centers;
/// M2090s run the kernel at ~0.55× Titan's K20X speed (paper §4.1).
pub fn moonlight() -> MachineSpec {
    MachineSpec {
        name: "moonlight".into(),
        total_nodes: 308,
        cores_per_node: 16,
        charge_factor: 16.0,
        has_gpus: true,
        node_speed: 0.55,
        gpu_speedup: 50.0,
        fs: FileSystemSpec {
            peak_bw: 8.0e9,
            per_node_bw: 0.8e9,
            latency: 2.0,
        },
        net: InterconnectSpec {
            per_node_bw: 40.0e6,
            latency: 1.0,
        },
        burst_buffer: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn titan_charge_policy_is_30x() {
        let t = titan();
        // One node-hour = 30 core-hours.
        assert_eq!(t.charge_core_hours(1, 3600.0), 30.0);
        // 32 nodes × 722 s ≈ 192.5 core-hours (paper's in-situ analysis cost).
        let ch = t.charge_core_hours(32, 722.0);
        assert!((ch - 192.5).abs() < 1.0, "{ch}");
    }

    #[test]
    fn titan_reads_20tb_in_about_10_minutes() {
        let t = titan();
        let secs = t.fs.io_time(20.0e12, 16_384);
        assert!(
            (400.0..800.0).contains(&secs),
            "20 TB read should take ~10 min, got {secs}s"
        );
    }

    #[test]
    fn io_scales_with_clients_until_peak() {
        let t = titan();
        let small = t.fs.io_time(1.0e12, 4);
        let large = t.fs.io_time(1.0e12, 16_384);
        assert!(small > large);
        // Beyond saturation adding clients changes nothing.
        assert_eq!(t.fs.io_time(1.0e12, 17_000), t.fs.io_time(1.0e12, 16_000));
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(titan().fs.io_time(0.0, 10), 0.0);
        assert_eq!(titan().net.redistribute_time(0.0, 10), 0.0);
        assert_eq!(titan().net.fetch_time(0.0), 0.0);
    }

    #[test]
    fn remote_fetch_is_one_link_not_an_all_to_all() {
        let t = titan();
        // A single-link fetch of B bytes costs latency + B/per_node_bw —
        // the same wire time as redistributing B over one node.
        let b = 512.0e6;
        assert_eq!(t.net.fetch_time(b), t.net.redistribute_time(b, 1));
        // And it is monotone in size.
        assert!(t.net.fetch_time(2.0 * b) > t.net.fetch_time(b));
    }

    #[test]
    fn moonlight_is_slower_than_titan() {
        let m = moonlight();
        let t = titan();
        // The paper adjusts Moonlight timings by ×0.55 to compare with Titan.
        assert!((55.0 / m.node_speed - 100.0).abs() < 1e-9);
        assert!(m.analysis_speed() < t.analysis_speed());
    }

    #[test]
    fn rhea_lacks_gpus_so_analysis_is_slow() {
        let r = rhea();
        // No GPU: analysis speed equals CPU node speed, ~50× slower than Titan's GPU path.
        assert!(r.analysis_speed() < titan().analysis_speed() / 10.0);
    }

    #[test]
    fn redistribute_time_matches_table4_anchor() {
        // Table 4 off-line workflow: redistributing the 1024³ Level 1 set
        // (~39 GB) over 32 nodes took 435 s.
        let t = titan();
        let level1_bytes = 1024.0f64.powi(3) * 36.0;
        let secs = t.net.redistribute_time(level1_bytes, 32);
        assert!((350.0..520.0).contains(&secs), "got {secs}");
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn io_with_zero_nodes_panics() {
        titan().fs.io_time(1.0, 0);
    }
}

#[cfg(test)]
mod burst_buffer_tests {
    use super::*;

    #[test]
    fn staging_is_much_faster_than_disk() {
        let m = titan_with_burst_buffer();
        let bb = m.burst_buffer.as_ref().unwrap();
        let bytes = 8.0e9; // a Level 2 snapshot
        let staged = bb.stage_time(bytes, 32).unwrap();
        let disk = m.fs.io_time(bytes, 32);
        assert!(staged * 5.0 < disk, "staged {staged} vs disk {disk}");
    }

    #[test]
    fn capacity_overflow_falls_back() {
        let bb = BurstBufferSpec {
            per_node_bw: 1e9,
            latency: 0.1,
            capacity: 1e9,
        };
        assert!(bb.stage_time(2e9, 4).is_none());
        assert_eq!(bb.stage_time(0.0, 4), Some(0.0));
    }

    #[test]
    fn presets_have_no_buffer_by_default() {
        assert!(titan().burst_buffer.is_none());
        assert!(rhea().burst_buffer.is_none());
        assert!(moonlight().burst_buffer.is_none());
        assert!(titan_with_burst_buffer().burst_buffer.is_some());
    }
}
