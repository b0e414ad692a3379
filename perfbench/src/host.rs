//! Host facts and process accounting for the run manifest.
//!
//! Everything here is read at run time (`/proc`, `/sys`, CPUID through
//! `is_x86_feature_detected!`) rather than assumed, so two results taken
//! on different hosts or builds say why they differ.

use std::path::Path;

/// Cache sizes in bytes as the kernel reports them for CPU 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct Caches {
    pub l2: u64,
    pub l3: u64,
}

pub fn caches() -> Caches {
    let mut c = Caches::default();
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let (Some(level), Some(size)) = (
            read_trim(&format!("{dir}/level")),
            read_trim(&format!("{dir}/size")),
        ) else {
            continue;
        };
        let bytes = parse_size(&size);
        match level.as_str() {
            "2" => c.l2 = bytes,
            "3" => c.l3 = bytes,
            _ => {}
        }
    }
    c
}

fn parse_size(s: &str) -> u64 {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1024),
        Some('M') => (&s[..s.len() - 1], 1024 * 1024),
        Some('G') => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    num.parse::<u64>().unwrap_or(0) * mult
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// ISA extensions the CPU reports at run time.
pub fn isa_detected() -> Vec<&'static str> {
    let mut v = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        macro_rules! probe {
            ($($f:tt),*) => {$(
                if std::is_x86_feature_detected!($f) {
                    v.push($f);
                }
            )*};
        }
        probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512dq", "avx512vl");
    }
    v
}

/// Target features this binary was compiled with.
pub fn isa_compiled() -> Vec<&'static str> {
    let mut v = Vec::new();
    macro_rules! probe {
        ($($f:tt),*) => {$(
            if cfg!(target_feature = $f) {
                v.push($f);
            }
        )*};
    }
    probe!("sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "avx512dq", "avx512vl");
    v
}

/// Aggregate CPU counters from the first line of `/proc/stat`, in ticks:
/// `(total, steal)`.
pub fn cpu_ticks() -> (u64, u64) {
    let Some(s) = std::fs::read_to_string("/proc/stat").ok() else {
        return (0, 0);
    };
    let Some(line) = s.lines().next() else {
        return (0, 0);
    };
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so it is not added again.
    let total = f.iter().take(8).sum();
    (total, f.get(7).copied().unwrap_or(0))
}

/// User + system CPU seconds of process `pid` ("self" for this one).
pub fn proc_cpu_s(pid: &str) -> f64 {
    let Some(s) = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok() else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line.
    let Some(rest) = s.rsplit(')').next() else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| f.get(i).and_then(|x| x.parse::<u64>().ok()))
        .sum();
    ticks as f64 / 100.0
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fingerprint of the sources the benchmark builds: FNV-1a over every
/// file under `crates/` plus the root manifests, in path order. It stands
/// in for the git SHA where the checkout is not a git repository.
pub fn source_fingerprint(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}

/// The commit the checkout was built from, when it is a git repository.
pub fn git_sha(root: &Path) -> String {
    let head = root.join(".git/HEAD");
    let Some(head) = std::fs::read_to_string(head).ok() else {
        return "unavailable (not a git checkout)".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read_trim(&root.join(".git").join(r).to_string_lossy())
            .or_else(|| {
                std::fs::read_to_string(root.join(".git/packed-refs"))
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split_whitespace().next())
                            .map(String::from)
                    })
            })
            .unwrap_or_else(|| "unresolved".into()),
        None => head.to_string(),
    }
}

/// Start-of-run readings for the steal and CPU-per-wall figures.
pub struct Accounting {
    t0: std::time::Instant,
    ticks0: (u64, u64),
    cpu0: f64,
}

impl Accounting {
    pub fn start() -> Accounting {
        Accounting {
            t0: std::time::Instant::now(),
            ticks0: cpu_ticks(),
            cpu0: proc_cpu_s("self"),
        }
    }

    /// `(steal ratio, process CPU seconds ÷ wall seconds)` since start;
    /// `extra_cpu_s` adds CPU time of a child process under test.
    pub fn finish(&self, extra_cpu_s: f64) -> (f64, f64) {
        let (t1, s1) = cpu_ticks();
        let dt = t1.saturating_sub(self.ticks0.0);
        let steal = if dt == 0 {
            0.0
        } else {
            s1.saturating_sub(self.ticks0.1) as f64 / dt as f64
        };
        let wall = self.t0.elapsed().as_secs_f64().max(1e-9);
        let cpu = proc_cpu_s("self") - self.cpu0 + extra_cpu_s;
        (steal, cpu / wall)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse() {
        assert_eq!(parse_size("4096K"), 4 << 20);
        assert_eq!(parse_size("300M"), 300 << 20);
        assert_eq!(parse_size("512"), 512);
    }
}
