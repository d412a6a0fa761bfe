//! Order statistics, process counters and small deterministic helpers.

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let n = values.len() as f64;
    values.iter().sum::<f64>() / n
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor took from this machine's vCPUs (`steal` in
/// `/proc/stat`, all CPUs), in ms. It explains run-to-run noise that no
/// change to the program can cause.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0) * 10.0
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    /// POSIX `clock_gettime`, from the C library `std` already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, all threads (live and exited)
/// together, in ms (`CLOCK_PROCESS_CPUTIME_ID`, ns resolution).
///
/// This is the benchmark's clock for every end-to-end time. With one op in
/// flight and single-threaded layers it equals the op's wall time on an
/// unshared core. Unlike wall time it leaves out time the vCPU spent
/// waiting for the host (the kernel's paravirtual steal accounting takes
/// steal out of task run time) and time spent queued behind other
/// processes, which on a shared host moved wall-clock op latency by a third
/// between runs of the same code.
pub fn cpu_ms() -> f64 {
    clock_ms(2)
}

/// CPU time the calling thread has used so far, in ms
/// (`CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_ms() -> f64 {
    clock_ms(3)
}

fn clock_ms(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 * 1e3 + ts.nsec as f64 / 1e6
}

/// 64-bit FNV-1a: a digest of report bytes that does not depend on any
/// hash function of the code under test.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// SplitMix64 finalizer: derives independent schedule seeds from the
/// benchmark seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((median(&v) - 50.5).abs() < 1e-9);
        assert!((percentile(&v, 90.0) - 90.0).abs() < 1e-9);
        assert!((percentile(&[3.0], 90.0) - 3.0).abs() < 1e-9);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_ms();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_ms() > before, "{x}");
        assert!(thread_cpu_ms() > 0.0);
        assert!(steal_ms() >= 0.0);
    }
}
