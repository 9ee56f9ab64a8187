//! Host fingerprint printed with every result, so numbers are only ever
//! compared between like hosts.

/// What the numbers depend on: cores, vector units, CPU and cache size.
#[derive(Debug)]
pub struct Host {
    pub logical_cores: usize,
    pub avx2: bool,
    pub cpu_model: String,
    pub llc: String,
}

impl Host {
    pub fn detect() -> Host {
        let logical_cores = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            logical_cores,
            avx2: avx2(),
            cpu_model,
            llc: last_level_cache().unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// Multi-threaded figures mean nothing on one core.
    pub fn multicore(&self) -> bool {
        self.logical_cores > 1
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"logical_cores\": {}, \"avx2\": {}, \"cpu_model\": \"{}\", \"llc\": \"{}\"}}",
            self.logical_cores,
            self.avx2,
            self.cpu_model.replace('"', "'"),
            self.llc
        )
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2() -> bool {
    false
}

/// Size of the highest-level cache of CPU 0, as the kernel reports it.
fn last_level_cache() -> Option<String> {
    let dir = std::path::Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, String)> = None;
    for entry in std::fs::read_dir(dir).ok()? {
        let path = entry.ok()?.path();
        let read = |f: &str| std::fs::read_to_string(path.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().ok()?;
        if best.as_ref().is_none_or(|(l, _)| level > *l) {
            best = Some((level, format!("L{level} {}", size.trim())));
        }
    }
    best.map(|(_, s)| s)
}
