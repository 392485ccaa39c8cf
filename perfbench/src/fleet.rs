//! `fleet`: K-server fleets analysed without the joint matrix.
//!
//! A K = 3 fleet of the paper's 23-state SYS chain (greedy policy,
//! work-migration coupling 0.05) is solved through its lumped occupancy
//! chain and matrix-free on the joint chain, and the two must agree after
//! refinement. A K = 12 M/M/1/5 fleet is solved lumped, and the two-level
//! wake/sleep CTMDP once on the plan pool. The sparse stationary ladder,
//! Kronecker matvecs and lumping carry the time.

use std::hint::black_box;

use dpm_bench::{paper_system, timed};
use dpm_cluster::{
    lumped_generator, solve_joint_matrix_free, solve_lumped, solve_two_level, ClusterError,
    ClusterModel, ClusterSpec, CouplingTerm, JointOptions, JointSolution, LumpedSolution,
    TwoLevelSolution,
};
use dpm_core::{PmPolicy, PmSystem, SpModel, SrModel};
use dpm_ctmc::stationary::{Method, Solver};
use dpm_ctmc::SparseGenerator;
use dpm_linalg::{CsrMatrix, DVector, KroneckerOp};
use dpm_mdp::Ctmdp;

use crate::span::{Recorder, Trace};
use crate::stats::{median, Ops};
use crate::{Check, Error, Metrics, Size, Traced, Unit};

/// Agreement required between the refined lumped law and the
/// matrix-free joint law.
const REFINE_TOL: f64 = 1e-8;

/// Largest error allowed in a distribution's total mass.
const MASS_TOL: f64 = 1e-9;

/// Plan workers for the two-level per-server sweep.
const WORKERS: usize = 2;

/// Matvecs timed per `linalg.kron_matvec_ns` sample.
const MATVECS: usize = 20;

/// The set-up `fleet` workload: models and the joint operator assembled.
#[derive(Debug, Clone)]
pub struct Fleet {
    paper: ClusterModel,
    operator: KroneckerOp,
    mm1k: ClusterModel,
    spec: ClusterSpec,
}

/// One pass over the fleet solves. Failed solves are counted and their
/// messages kept; they do not end the run.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Wall time of the pass.
    pub wall_s: f64,
    /// The four solves: lumped K-fleet, matrix-free K-fleet with its
    /// refinement gate, lumped M/M/1/5 fleet, two-level CTMDP.
    pub ops: Ops,
    /// Messages of failed solves.
    pub failures: Vec<String>,
    lumped: Option<LumpedSolution>,
    free: Option<JointSolution>,
    refine_gap: Option<f64>,
    mm1k: Option<LumpedSolution>,
    two_level: Option<TwoLevelSolution>,
}

impl Unit for Batch {
    fn wall_s(&self) -> f64 {
        self.wall_s
    }

    fn ops(&self) -> Ops {
        self.ops
    }

    /// Solves completed.
    fn work(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let solved = self.ops.succeeded() as f64;
        solved
    }

    fn failures(&self) -> Vec<String> {
        self.failures.clone()
    }
}

impl Fleet {
    /// Builds the local chains, fleet models and the K-fleet's joint
    /// operator. The seed is the two-level sweep's root seed.
    ///
    /// # Errors
    ///
    /// Propagates model construction failures.
    pub fn setup(size: Size, seed: u64) -> Result<Fleet, Error> {
        let (k_paper, k_mm1k, k_two_level) = match size {
            Size::Full => (3, 12, 4),
            Size::Tiny => (2, 3, 2),
        };
        let system = paper_system(1.0 / 6.0)?;
        let chain = system.sparse_generator_for(&PmPolicy::greedy(&system)?)?;
        let n = chain.n_states();
        let paper = ClusterModel::new(chain, k_paper)?.with_coupling(migration(n, 0.05)?)?;
        let operator = paper.joint_operator()?;
        let mut transitions = Vec::new();
        for i in 0..5 {
            transitions.push((i, i + 1, 2.0));
            transitions.push((i + 1, i, 3.0));
        }
        let mm1k = ClusterModel::new(SparseGenerator::from_transitions(6, &transitions)?, k_mm1k)?
            .with_coupling(migration(6, 0.25)?)?;
        let base = 1.0 / 6.0;
        let spec = ClusterSpec {
            k: k_two_level,
            level_up: vec![0.5, 0.3],
            level_down: vec![0.8, 1.0],
            offered: vec![base, 2.0 * base, 3.0 * base],
            wake_rate: 2.0,
            sleep_rate: 2.0,
            sleep_power: 0.1,
            drop_penalty: 50.0,
            root_seed: seed,
        };
        Ok(Fleet {
            paper,
            operator,
            mm1k,
            spec,
        })
    }

    /// Runs the four fleet solves: the untraced unit of work.
    #[must_use]
    pub fn batch(&self) -> Batch {
        let (mut batch, wall_s) = timed(|| {
            let lumped = solve_lumped(&self.paper);
            let free = solve_joint_matrix_free(&self.paper, &JointOptions::default());
            let refine_gap = match (&lumped, &free) {
                (Ok(l), Ok(f)) => Some(l.refine_joint().map(|r| max_abs_diff(&r, f.pi()))),
                _ => None,
            };
            let mm1k = solve_lumped(&self.mm1k);
            let two_level = self.two_level();
            self.tally(lumped, free, refine_gap, mm1k, two_level)
        });
        batch.wall_s = wall_s;
        batch
    }

    fn two_level(&self) -> Result<TwoLevelSolution, ClusterError> {
        solve_two_level(&self.spec, local_model, WORKERS)
    }

    /// Counts and keeps the four solves' outcomes.
    fn tally(
        &self,
        lumped: Result<LumpedSolution, ClusterError>,
        free: Result<JointSolution, ClusterError>,
        refine_gap: Option<Result<f64, ClusterError>>,
        mm1k: Result<LumpedSolution, ClusterError>,
        two_level: Result<TwoLevelSolution, ClusterError>,
    ) -> Batch {
        let mut ops = Ops::default();
        let mut failures = Vec::new();
        let k = self.paper.k();
        let mut keep = |name: String, ok: Result<(), String>| {
            ops.record(ok.is_ok());
            if let Err(e) = ok {
                failures.push(format!("{name}: {e}"));
            }
        };
        keep(
            format!("lumped K={k}"),
            lumped.as_ref().map(|_| ()).map_err(ToString::to_string),
        );
        let gate = match (&free, &refine_gap) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(_), Some(Ok(gap))) if *gap > REFINE_TOL => Err(format!(
                "refined lumped law is {gap:.2e} from the joint law"
            )),
            (Ok(_), Some(Err(e))) => Err(format!("refinement failed: {e}")),
            (Ok(_), _) => Ok(()),
        };
        keep(format!("matrix-free K={k} + refine gate"), gate);
        keep(
            format!("lumped K={}", self.mm1k.k()),
            mm1k.as_ref().map(|_| ()).map_err(ToString::to_string),
        );
        keep(
            "two-level".to_owned(),
            two_level.as_ref().map(|_| ()).map_err(ToString::to_string),
        );
        Batch {
            wall_s: 0.0,
            ops,
            failures,
            lumped: lumped.ok(),
            free: free.ok(),
            refine_gap: refine_gap.and_then(Result::ok),
            mm1k: mm1k.ok(),
            two_level: two_level.ok(),
        }
    }

    /// The untraced run's checks: refinement agrees with the matrix-free
    /// law, every distribution sums to one, and every batch computed the
    /// same laws.
    #[must_use]
    pub fn checks(&self, batches: &[Batch]) -> Vec<Check> {
        let Some(first) = batches.first() else {
            return vec![Check::new("fleet.batches", false, "no batch ran")];
        };
        let gap = first.refine_gap;
        let mut checks = vec![Check::new(
            "fleet.refine_matches_matrix_free",
            gap.is_none_or(|g| g <= REFINE_TOL),
            gap.map_or_else(
                || "not evaluated: a solve failed (counted in failed)".to_owned(),
                |g| format!("max |refined - matrix-free| = {g:.3e} (tolerance {REFINE_TOL:.0e})"),
            ),
        )];
        let masses = [
            first.lumped.as_ref().map(|l| mass(l.pi())),
            first.free.as_ref().map(|f| mass(f.pi())),
            first.mm1k.as_ref().map(|l| mass(l.pi())),
            first.two_level.as_ref().map(|t| mass(t.pi())),
        ];
        let worst = masses
            .iter()
            .flatten()
            .map(|m| (m - 1.0).abs())
            .fold(0.0, f64::max);
        checks.push(Check::new(
            "fleet.pi_sums_to_one",
            worst <= MASS_TOL,
            format!("worst |sum(pi) - 1| = {worst:.3e}"),
        ));
        let repeat = batches.iter().all(|b| same_laws(b, first));
        checks.push(Check::new(
            "fleet.deterministic",
            repeat,
            format!("{} batches computed identical laws", batches.len()),
        ));
        checks.push(Check::new(
            "fleet.residuals",
            true,
            format!(
                "lumped {:.3e}, matrix-free {:.3e}, M/M/1/5 lumped {:.3e}",
                first
                    .lumped
                    .as_ref()
                    .map_or(f64::NAN, |l| l.stats().residual()),
                first
                    .free
                    .as_ref()
                    .map_or(f64::NAN, JointSolution::residual),
                first
                    .mm1k
                    .as_ref()
                    .map_or(f64::NAN, |l| l.stats().residual()),
            ),
        ));
        checks
    }

    /// The traced run's fleet part: one untraced batch, then the same
    /// solves in spans with the lumped solve split into its generator
    /// assembly and its stationary solve, and a matvec probe on the
    /// joint operator.
    ///
    /// # Errors
    ///
    /// Propagates failures of the split lumped solve, which the batch
    /// runs unsplit.
    pub fn trace(&self, trace: &mut Trace, layers: &mut Metrics) -> Result<Traced, Error> {
        let untraced = self.batch();
        let mut rec = Recorder::new(trace);
        let traced = rec.span("fleet.batch", |rec| {
            let lumped_parts =
                rec.leaf("cluster.lumped_generator", || lumped_generator(&self.paper));
            let stationary = lumped_parts.as_ref().ok().map(|(_, generator)| {
                rec.leaf("ctmc.stationary", || {
                    Solver::new(Method::BiCgStab)
                        .with_default_fallback()
                        .solve(generator)
                })
            });
            let free = rec.leaf("cluster.joint_free", || {
                solve_joint_matrix_free(&self.paper, &JointOptions::default())
            });
            let refine_gap = match (&untraced.lumped, &free) {
                (Some(l), Ok(f)) => Some(
                    rec.leaf("cluster.refine", || l.refine_joint())
                        .map(|r| max_abs_diff(&r, f.pi())),
                ),
                _ => None,
            };
            let mm1k = rec.leaf("cluster.lumped_k12", || solve_lumped(&self.mm1k));
            let two_level = rec.leaf("cluster.two_level", || self.two_level());
            (lumped_parts, stationary, free, refine_gap, mm1k, two_level)
        });
        let (lumped_parts, stationary, free, refine_gap, mm1k, two_level) = traced;
        let traced_wall_s = trace.total_s("fleet.batch");

        let (_, generator) = lumped_parts?;
        let (pi, stats) = stationary.ok_or("lumped generator missing")??;
        let split_matches = untraced
            .lumped
            .as_ref()
            .is_some_and(|l| max_abs_diff(&pi, l.pi()) <= 0.0);

        let x = DVector::from_vec(vec![1.0; self.operator.dim()]);
        let mut samples = Vec::with_capacity(5);
        for _ in 0..5 {
            let ((), secs) = timed(|| {
                for _ in 0..MATVECS {
                    black_box(self.operator.mul_vec(black_box(&x)));
                }
            });
            #[allow(clippy::cast_precision_loss)]
            samples.push(secs * 1e9 / MATVECS as f64);
        }

        layers.push("ctmc.stationary_s", "s", trace.total_s("ctmc.stationary"));
        layers.count("ctmc.escalations", stats.escalation().len() as u64);
        layers.push("ctmc.solve_residual", "1", stats.residual());
        layers.push("linalg.kron_matvec_ns", "ns", median(&samples)?);
        layers.push(
            "cluster.lumped_generator_s",
            "s",
            trace.total_s("cluster.lumped_generator"),
        );
        layers.push(
            "cluster.joint_free_s",
            "s",
            trace.total_s("cluster.joint_free"),
        );
        layers.push("cluster.refine_s", "s", trace.total_s("cluster.refine"));
        layers.push(
            "cluster.lumped_k12_s",
            "s",
            trace.total_s("cluster.lumped_k12"),
        );
        layers.push(
            "cluster.two_level_s",
            "s",
            trace.total_s("cluster.two_level"),
        );
        layers.count("cluster.lumped_states", generator.n_states() as u64);
        layers.count("cluster.lumped_nnz", generator.nnz() as u64);
        // A failed matrix-free solve reports zeros here; it is counted in
        // `failed`.
        let (iterations, bytes, escalated) = free.as_ref().map_or((0, 0, false), |f| {
            (f.iterations(), f.operator_bytes(), f.escalated())
        });
        layers.count("linalg.krylov_iterations", iterations as u64);
        layers.push("cluster.operator_bytes", "bytes", bytes as f64);
        layers.count("cluster.joint_escalated", u64::from(escalated));

        let lumped = untraced
            .lumped
            .clone()
            .ok_or("untraced lumped solve failed");
        let batch = self.tally(
            lumped.map_err(|e| ClusterError::Solve {
                reason: e.to_owned(),
            }),
            free,
            refine_gap,
            mm1k,
            two_level,
        );
        let mut checks = vec![Check::new(
            "fleet.split_lumped_matches",
            split_matches,
            "lumped_generator + Solver(BiCgStab, default fallback) gives solve_lumped's law bit for bit",
        )];
        checks.extend(self.checks(&[untraced.clone(), batch.clone()]));
        Ok(Traced {
            untraced_wall_s: untraced.wall_s,
            traced_wall_s,
            ops: batch.ops,
            checks,
            failures: batch.failures,
        })
    }
}

/// A work-migration coupling on an `n`-state chain: the donor sheds one
/// unit of backlog (`n-1 -> n-2`) while the receiver takes one (`0 -> 1`).
fn migration(n: usize, rate: f64) -> Result<CouplingTerm, ClusterError> {
    let donor = CsrMatrix::from_triplets(n, n, &[(n - 1, n - 2, 1.0)])?;
    let receiver = CsrMatrix::from_triplets(n, n, &[(0, 1, 1.0)])?;
    CouplingTerm::new(rate, donor, receiver)
}

/// Per-server CTMDP of the two-level model: the paper's server at
/// capacity 3 with the level's load split over `k` active servers.
fn local_model(level: usize, k: usize) -> Result<Ctmdp, ClusterError> {
    let to_cluster = |e: dpm_core::DpmError| ClusterError::Solve {
        reason: format!("local model construction failed: {e}"),
    };
    #[allow(clippy::cast_precision_loss)]
    let lambda = (1.0 / 6.0) * (level as f64 + 1.0) / k.max(1) as f64;
    let system = PmSystem::builder()
        .provider(SpModel::dac99_server().map_err(to_cluster)?)
        .requestor(SrModel::poisson(lambda).map_err(to_cluster)?)
        .capacity(3)
        .build()
        .map_err(to_cluster)?;
    system.ctmdp(1.0).map_err(to_cluster)
}

fn max_abs_diff(a: &DVector, b: &DVector) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn mass(pi: &DVector) -> f64 {
    pi.iter().sum()
}

/// Whether two batches computed bit-identical laws.
fn same_laws(a: &Batch, b: &Batch) -> bool {
    fn bits(pi: Option<&DVector>) -> Option<Vec<u64>> {
        pi.map(|p| p.iter().map(f64::to_bits).collect())
    }
    bits(a.lumped.as_ref().map(LumpedSolution::pi))
        == bits(b.lumped.as_ref().map(LumpedSolution::pi))
        && bits(a.free.as_ref().map(JointSolution::pi))
            == bits(b.free.as_ref().map(JointSolution::pi))
        && bits(a.mm1k.as_ref().map(LumpedSolution::pi))
            == bits(b.mm1k.as_ref().map(LumpedSolution::pi))
        && bits(a.two_level.as_ref().map(TwoLevelSolution::pi))
            == bits(b.two_level.as_ref().map(TwoLevelSolution::pi))
}
