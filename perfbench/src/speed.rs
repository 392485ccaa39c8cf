//! The host-speed probe: a fixed piece of work, timed between units of
//! work, that gives the end-to-end times a host-independent scale.
//!
//! The benchmark's host is a 2-vCPU share of a machine whose speed moves
//! by tens of percent over minutes as other tenants come and go, the
//! same for every workload and for this probe. The probe is the
//! benchmark's own code and never calls into the crates, so a change to
//! the program cannot move it: dividing a unit's wall time by the speed
//! the probe measured around it removes the host's phase and keeps the
//! program's.
//!
//! The probe mixes the two kinds of work the gated workloads do: dense
//! Gaussian elimination on a freshly allocated matrix (frontier's
//! policy evaluation) and a branchy table-driven random walk (the serve
//! engine's event loop), on [`PROBE_THREADS`] threads, as many as the
//! workloads load.

use dpm_bench::timed;

/// Threads the probe runs on: as many as carry a workload's load.
const PROBE_THREADS: usize = 2;

/// The probe's wall time, in seconds, on the host the baseline was
/// recorded on (`BASELINE.md`). Speed-adjusted times are in seconds at
/// that host's speed: a unit's wall time × `PROBE_REFERENCE_S` / the
/// probe's wall time around it.
pub const PROBE_REFERENCE_S: f64 = 0.27;

/// Order of the matrix each probe thread factors.
const DENSE_N: usize = 96;
/// Factorizations per probe thread.
const DENSE_REPEATS: usize = 720;
/// Steps of the random walk per probe thread.
const WALK_STEPS: u64 = 18_000_000;

/// Runs the probe once and returns its wall time in seconds.
///
/// # Errors
///
/// Returns a message if a probe thread panicked.
pub fn probe() -> Result<f64, String> {
    let (checks, secs) = timed(|| {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..PROBE_THREADS as u64)
                .map(|salt| scope.spawn(move || work(salt)))
                .collect();
            handles
                .into_iter()
                .map(std::thread::ScopedJoinHandle::join)
                .collect::<Result<Vec<f64>, _>>()
        })
    });
    let checks = checks.map_err(|_| "a speed-probe thread panicked".to_owned())?;
    if checks.iter().all(|c| c.is_finite()) {
        Ok(secs)
    } else {
        Err("the speed probe computed a non-finite checksum".to_owned())
    }
}

/// One thread's share of the probe; the checksum keeps the optimizer
/// from dropping the work.
fn work(salt: u64) -> f64 {
    let mut checksum = 0.0;
    for r in 0..DENSE_REPEATS {
        checksum += eliminate(DENSE_N, salt + r as u64);
    }
    #[allow(clippy::cast_precision_loss)]
    let walk = walk(WALK_STEPS, salt) as f64;
    checksum + walk * 1e-30
}

/// Gaussian elimination with partial pivoting on a fresh diagonally
/// dominant `n × n` matrix; returns log |det|.
fn eliminate(n: usize, salt: u64) -> f64 {
    let mut state = 0x9E37_79B9_7F4A_7C15 ^ salt;
    let mut a: Vec<f64> = (0..n * n)
        .map(|k| {
            state = xorshift(state);
            #[allow(clippy::cast_precision_loss)]
            let x = (state >> 11) as f64 / (1u64 << 53) as f64;
            if k % (n + 1) == 0 {
                x + 2.0
            } else {
                x / 4.0 - 0.125
            }
        })
        .collect();
    let mut log_det = 0.0;
    for col in 0..n {
        let pivot = (col..n)
            .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
            .unwrap_or(col);
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
        }
        let p = a[col * n + col];
        log_det += p.abs().ln();
        let (head, tail) = a.split_at_mut((col + 1) * n);
        let pivot_row = &head[col * n..];
        for row in tail.chunks_exact_mut(n) {
            let f = row[col] / p;
            for (x, &y) in row[col..].iter_mut().zip(&pivot_row[col..]) {
                *x -= f * y;
            }
        }
    }
    log_det
}

/// A random walk over a small transition table, branching on every
/// step; returns the number of visits to state 0.
fn walk(steps: u64, salt: u64) -> u64 {
    const STATES: usize = 64;
    let table: Vec<[u8; 4]> = (0..STATES)
        .map(|s| {
            let s = s as u64;
            [
                ((s * 7 + 1) % 64) as u8,
                ((s * 13 + 5) % 64) as u8,
                ((s + 63) % 64) as u8,
                ((s * 31 + 17) % 64) as u8,
            ]
        })
        .collect();
    let mut rng = 0xD1B5_4A32_D192_ED03 ^ salt;
    let mut state = 0usize;
    let mut visits = 0u64;
    for _ in 0..steps {
        rng = xorshift(rng);
        let next = table[state][(rng & 3) as usize] as usize;
        if next == 0 {
            visits += 1;
        } else if rng & 0x30 == 0 {
            visits = visits.wrapping_add(rng >> 60);
        }
        state = next;
    }
    visits
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}
