//! Job specifications: what a client asks the runtime to solve, and how.
//!
//! A [`JobSpec`] is the unit of admission — problem, solver shape,
//! termination, width, priority, and deadline, all expressible as one JSON
//! object on the wire. [`ProblemSpec::build`] is the single place
//! instances are materialized from a spec, shared by the server workers, the
//! CLI (which converts its flags into a `ProblemSpec`), and the offline
//! reference runs in the integration tests — so "the job the server ran" and
//! "the job the test reproduces" are the same model by construction. The
//! server reaches it through [`ModelCache`], so jobs that repeat a generator
//! spec share one model.

use crate::obs::ModelObs;
use dabs_core::{DabsConfig, DabsSolver, Termination};
use dabs_model::{KernelChoice, QuboModel};
use dabs_problems::{gset, qaplib, QaspInstance, Topology};
use dabs_rng::{Rng64, Xorshift64Star};
use serde::json::Json;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Admission caps on untrusted job shape, enforced by [`JobSpec::validate`]
/// — the server path only; the CLI builds specs from its own flags and may
/// exceed these offline. They bound what one `submit` line can make a worker
/// do *before* the job's termination or stop flag is ever consulted: model
/// construction is not cancellable, so its cost (an O(n²) generator loop, a
/// `vec![0; n]` allocation sized by a client-declared header) must be capped
/// at admission or a single small request pins a worker — or aborts the
/// process — for every tenant.
pub const MAX_PROBLEM_N: usize = 4096;
/// QAP generators (`tai`/`nug`/`tho`) square their size into n² QUBO
/// variables, so their cap is the square root of the variable budget.
pub const MAX_QAP_SIZE: usize = 64;
/// Every unit of a job holds `devices` solution pools and inline devices,
/// so the pool count bounds a unit's memory and per-batch setup.
pub const MAX_DEVICES: usize = 32;

/// Which instance to solve. `kind` selects a generator family (the same set
/// the CLI exposes) or `"inline"`, in which case `inline` carries the model
/// in the repo's `.qubo` text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProblemSpec {
    pub kind: String,
    /// Instance size; each generator has its own default.
    pub n: Option<usize>,
    /// Generator seed (ignored for `inline`).
    pub seed: u64,
    /// `.qubo` text for `kind == "inline"`.
    pub inline: Option<String>,
    /// Energy-kernel backend override (`auto` picks by density at model
    /// build; the wire spelling is `"kernel": "auto"|"csr"|"dense"`).
    pub kernel: KernelChoice,
}

impl ProblemSpec {
    /// A random dense QUBO — the workhorse for load generation and tests.
    pub fn random(n: usize, seed: u64) -> Self {
        Self {
            kind: "random".into(),
            n: Some(n),
            seed,
            inline: None,
            kernel: KernelChoice::Auto,
        }
    }

    /// Wrap a `.qubo` document.
    pub fn inline_text(text: impl Into<String>) -> Self {
        Self {
            kind: "inline".into(),
            n: None,
            seed: 0,
            inline: Some(text.into()),
            kernel: KernelChoice::Auto,
        }
    }

    /// Materialize the model plus a human-readable instance name.
    pub fn build(&self) -> Result<(QuboModel, String), String> {
        let (mut model, name) = self.build_instance()?;
        // Apply the spec's kernel override after construction so every
        // generator shares one selection path. `Auto` re-runs the same
        // density policy the builder already applied — a no-op.
        model.select_kernel(self.kernel);
        Ok((model, name))
    }

    fn build_instance(&self) -> Result<(QuboModel, String), String> {
        let seed = self.seed;
        match self.kind.as_str() {
            "inline" => {
                let text = self
                    .inline
                    .as_deref()
                    .ok_or("inline problem requires the \"inline\" field")?;
                let model = dabs_model::io::parse_qubo(text).map_err(|e| e.to_string())?;
                let name = format!("inline(n={})", model.n());
                Ok((model, name))
            }
            "k2000" => {
                let n = self.n.unwrap_or(200);
                let p = gset::k2000_like(n, seed);
                Ok((p.to_qubo(), p.name))
            }
            "g22" => {
                let n = self.n.unwrap_or(200);
                let m = (n * n) / 200; // matches G22's 1% density
                let p = gset::g22_like(n, m, seed);
                Ok((p.to_qubo(), p.name))
            }
            "g39" => {
                let n = self.n.unwrap_or(200);
                let m = (n * n * 6) / 2000;
                let p = gset::g39_like(n, m, seed);
                Ok((p.to_qubo(), p.name))
            }
            "tai" => {
                let n = self.n.unwrap_or(9);
                let q = qaplib::tai_like(n, seed);
                let pen = q.auto_penalty();
                let name = format!("{} (penalty {pen})", q.name);
                Ok((q.to_qubo(pen), name))
            }
            "nug" => {
                let n = self.n.unwrap_or(9);
                let side = (n as f64).sqrt().round() as usize;
                if side * side != n {
                    return Err(format!("nug requires a square n, got {n}"));
                }
                let q = qaplib::nug_like(side, side, seed);
                let pen = q.auto_penalty();
                let name = format!("{} (penalty {pen})", q.name);
                Ok((q.to_qubo(pen), name))
            }
            "tho" => {
                let n = self.n.unwrap_or(9);
                let side = (n as f64).sqrt().round() as usize;
                if side * side != n {
                    return Err(format!("tho requires a square n, got {n}"));
                }
                let q = qaplib::tho_like(side, side, seed);
                let pen = q.auto_penalty();
                let name = format!("{} (penalty {pen})", q.name);
                Ok((q.to_qubo(pen), name))
            }
            "qasp" => {
                let n = self.n.unwrap_or(512);
                // Chimera cell count that covers n before fault trimming
                let cells = ((n as f64 / 8.0).sqrt().ceil() as usize).max(2);
                let topo = Topology::pegasus_like(cells, cells, 14.0, seed);
                let target_edges = (n * 7).min(topo.edge_count());
                let topo = topo.with_faults(n.min(topo.n()), target_edges, seed);
                let inst = QaspInstance::generate(&topo, 16, seed);
                let name = inst.name.clone();
                Ok((inst.qubo().clone(), name))
            }
            "random" => {
                let n = self.n.unwrap_or(64);
                let mut rng = Xorshift64Star::new(seed);
                let mut b = dabs_model::QuboBuilder::new(n);
                for i in 0..n {
                    b.add_linear(i, rng.next_range_i64(-9, 9));
                    for j in (i + 1)..n {
                        if rng.next_bool(0.3) {
                            b.add_quadratic(i, j, rng.next_range_i64(-9, 9));
                        }
                    }
                }
                Ok((
                    b.build().map_err(|e| e.to_string())?,
                    format!("random(n={n})"),
                ))
            }
            other => Err(format!("unknown problem kind {other:?}")),
        }
    }

    /// Admission-time size check (see [`MAX_PROBLEM_N`]). For `inline`
    /// problems the *declared* variable count on the `p` header line is what
    /// gets allocated before any term is validated, so that is what must be
    /// bounded; a malformed header passes here and fails properly in
    /// [`ProblemSpec::build`].
    pub fn validate_size(&self) -> Result<(), String> {
        // `kernel:"dense"` on the wire commits a worker to an n²×4-byte
        // weight matrix regardless of instance sparsity, so it gets the
        // same ceiling the auto policy enforces (`DENSE_AUTO_MAX_N`).
        // Today that equals MAX_PROBLEM_N — every admissible instance is
        // already allowed to go dense via `Auto` (a tai-at-the-cap QAP
        // does exactly that) — but the explicit check stops a future raise
        // of MAX_PROBLEM_N from silently widening the dense memory bound.
        if self.kernel == KernelChoice::Dense {
            let declared = match self.kind.as_str() {
                "inline" => self.inline.as_deref().and_then(dabs_model::io::declared_n),
                "tai" | "nug" | "tho" => {
                    let size = self.n.unwrap_or(9);
                    Some(size * size)
                }
                _ => self.n,
            };
            if let Some(n) = declared {
                if n > dabs_model::DENSE_AUTO_MAX_N {
                    return Err(format!(
                        "kernel \"dense\" at {n} variables exceeds the dense admission cap {} \
                         (n² × 4 bytes of weights per job)",
                        dabs_model::DENSE_AUTO_MAX_N
                    ));
                }
            }
        }
        match self.kind.as_str() {
            "tai" | "nug" | "tho" => {
                let n = self.n.unwrap_or(9);
                if n > MAX_QAP_SIZE {
                    return Err(format!(
                        "{} size {n} exceeds the admission cap {MAX_QAP_SIZE} (n² variables)",
                        self.kind
                    ));
                }
            }
            "inline" => {
                if let Some(n) = self.inline.as_deref().and_then(dabs_model::io::declared_n) {
                    if n > MAX_PROBLEM_N {
                        return Err(format!(
                            "inline problem declares {n} variables, admission cap is {MAX_PROBLEM_N}"
                        ));
                    }
                }
            }
            _ => {
                // Every generator's default is far below the cap, so only an
                // explicit n can violate it (unknown kinds fail in build()).
                if let Some(n) = self.n {
                    if n > MAX_PROBLEM_N {
                        return Err(format!(
                            "problem size {n} exceeds the admission cap {MAX_PROBLEM_N}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// The key the model cache files this spec's model under, or `None`
    /// for an inline document, which bypasses the cache.
    fn model_key(&self) -> Option<ModelKey> {
        (self.kind != "inline").then(|| ModelKey {
            kind: self.kind.clone(),
            n: self.n,
            seed: self.seed,
            kernel: self.kernel,
        })
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("kind", Json::str(self.kind.clone())),
            ("n", self.n.map(|n| n as u64).into()),
            ("seed", Json::from(self.seed)),
            (
                "inline",
                self.inline.as_ref().map(|t| Json::str(t.clone())).into(),
            ),
            ("kernel", Json::str(self.kernel.name())),
        ])
    }

    /// Parse a problem, field by field as [`JobSpec::from_json`] does.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        Ok(Self {
            kind: str_field(j, "kind")?.ok_or("problem needs a \"kind\"")?,
            n: int_field(j, "n")?,
            seed: int_field(j, "seed")?.unwrap_or(1),
            inline: str_field(j, "inline")?,
            kernel: match str_field(j, "kernel")? {
                Some(k) => KernelChoice::from_name(&k)?,
                None => KernelChoice::Auto,
            },
        })
    }
}

/// Byte budget of the server's process-wide model cache, which jobs with
/// one generator spec share their model through. It holds the paper's
/// K2000 at n=2000 (about 64 MB with its dense strips) four times over.
pub const MODEL_CACHE_BUDGET: usize = 256 << 20;

/// Everything [`ProblemSpec::build`] reads for a generator kind: two specs
/// with one key build equal models on the same kernel.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelKey {
    kind: String,
    n: Option<usize>,
    seed: u64,
    kernel: KernelChoice,
}

/// A byte-bounded map from generator spec to its built model, least
/// recently used out first, so jobs that repeat a spec share one model
/// instead of each building its own.
///
/// Only generator specs are kept. Inline documents are built every time:
/// served documents are unique, so keeping them would buy no hit. A model
/// larger than the whole budget is served but not kept. Two jobs that miss
/// on one key at the same moment may both build; the first to finish is
/// kept and the other's build is dropped.
#[derive(Debug)]
pub(crate) struct ModelCache {
    budget: usize,
    state: Mutex<CacheState>,
    obs: ModelObs,
}

#[derive(Debug, Default)]
struct CacheState {
    entries: HashMap<ModelKey, CacheEntry>,
    /// Last-use stamp → key; the first entry is the least recently used.
    by_use: BTreeMap<u64, ModelKey>,
    clock: u64,
    bytes: usize,
}

#[derive(Debug)]
struct CacheEntry {
    model: Arc<QuboModel>,
    bytes: usize,
    used: u64,
}

impl CacheState {
    /// The kept model under `key`, now the most recently used.
    fn touch(&mut self, key: &ModelKey) -> Option<Arc<QuboModel>> {
        let entry = self.entries.get_mut(key)?;
        self.clock += 1;
        let last = std::mem::replace(&mut entry.used, self.clock);
        let key = self.by_use.remove(&last).expect("every entry has a stamp");
        self.by_use.insert(self.clock, key);
        Some(Arc::clone(&entry.model))
    }
}

impl ModelCache {
    /// An empty cache that keeps at most `budget` bytes of models
    /// ([`QuboModel::heap_bytes`]).
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget,
            state: Mutex::new(CacheState::default()),
            obs: ModelObs::default(),
        }
    }

    /// The model for `spec`: the kept one when a job with the same generator
    /// spec built it before, else built now and kept if it fits. Build
    /// errors are returned, never kept.
    pub(crate) fn get_or_build(&self, spec: &ProblemSpec) -> Result<Arc<QuboModel>, String> {
        let Some(key) = spec.model_key() else {
            return self.build(spec);
        };
        if let Some(model) = self.lock().touch(&key) {
            self.obs.cache_hits.inc();
            return Ok(model);
        }
        self.obs.cache_misses.inc();
        let model = self.build(spec)?;
        Ok(self.keep(key, model))
    }

    fn build(&self, spec: &ProblemSpec) -> Result<Arc<QuboModel>, String> {
        let start = Instant::now();
        let built = spec.build().map(|(model, _name)| Arc::new(model));
        self.obs.build_us.record(start.elapsed().as_micros() as u64);
        built
    }

    /// Keep `model` under `key`, evicting least recently used models until
    /// it fits, and return the model the cache now holds for `key`.
    fn keep(&self, key: ModelKey, model: Arc<QuboModel>) -> Arc<QuboModel> {
        let bytes = model.heap_bytes();
        if bytes > self.budget {
            return model;
        }
        let mut evicted = Vec::new();
        let mut st = self.lock();
        if let Some(kept) = st.touch(&key) {
            return kept; // a concurrent miss on the same key finished first
        }
        while st.bytes + bytes > self.budget {
            let (_, old) = st
                .by_use
                .pop_first()
                .expect("over budget implies a kept model");
            let entry = st.entries.remove(&old).expect("every stamp has an entry");
            st.bytes -= entry.bytes;
            evicted.push(entry.model);
            self.obs.cache_evictions.inc();
        }
        st.clock += 1;
        let used = st.clock;
        st.by_use.insert(used, key.clone());
        let entry = CacheEntry {
            model: Arc::clone(&model),
            bytes,
            used,
        };
        st.entries.insert(key, entry);
        st.bytes += bytes;
        self.obs.cache_bytes.set(st.bytes as i64);
        drop(st);
        drop(evicted); // freed outside the lock
        model
    }

    /// This cache's hit, miss, eviction, size and build-time tallies.
    pub(crate) fn obs(&self) -> &ModelObs {
        &self.obs
    }

    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("model cache lock")
    }
}

/// The process-wide [`ModelCache`] every job's model comes from
/// (`JobRecord::model`), sized by [`MODEL_CACHE_BUDGET`]. Its tallies are
/// the `model.*` metrics.
pub(crate) fn model_cache() -> &'static ModelCache {
    static CACHE: OnceLock<ModelCache> = OnceLock::new();
    CACHE.get_or_init(|| ModelCache::new(MODEL_CACHE_BUDGET))
}

/// Everything the runtime needs to admit, schedule, and execute one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    pub problem: ProblemSpec,
    /// Solver pools/devices (paper's island count).
    pub devices: usize,
    /// Solver seed.
    pub seed: u64,
    /// Use the fixed-strategy ABS baseline preset instead of full DABS.
    pub abs: bool,
    /// Stop at (≤) this energy.
    pub target: Option<i64>,
    /// Wall-clock budget, milliseconds.
    pub time_ms: Option<u64>,
    /// Batch budget, split exactly across the job's units.
    pub max_batches: Option<u64>,
    /// Higher runs first; ties are FIFO.
    pub priority: i32,
    /// Absolute deadline, milliseconds since the unix epoch. A job whose
    /// deadline has passed is rejected at admission; one that expires while
    /// queued is dropped by the worker; a running job has its time budget
    /// clamped to the remaining window.
    pub deadline_unix_ms: Option<u64>,
    /// Explicit decomposition width: how many units the scheduler splits
    /// this job into, side by side on the pool. `None` lets the pool decide
    /// from the batch budget and worker count; capped at
    /// [`MAX_UNITS_PER_JOB`]. The first unit runs with `seed`, the others
    /// with their own `DabsSolver::for_unit` seeds, so only a single-unit
    /// job is reproducible run for run: it equals the `run_sequential` run
    /// of the same spec unless a higher-priority unit makes it yield.
    pub units: Option<u32>,
    /// Bit-sliced batch width per device: `None`/0 runs the scalar
    /// strategies, a multiple of 64 in `[64, 256]` runs the bulk lockstep
    /// sweep with that many resident candidate lanes (a cube-seeded unit's
    /// warm start then fans out across the whole lane batch).
    pub lanes: Option<u32>,
    /// Which tenant this job bills against (admission rate limiting). A
    /// connection's `hello`-declared tenant fills this in when the spec
    /// leaves it unset; unset on an anonymous v1 connection means the
    /// default tenant bucket.
    pub tenant: Option<String>,
    /// Client-chosen idempotency key. A resubmit carrying a key the server
    /// has already admitted (within the retained-jobs window) returns the
    /// original job id — and its terminal result, if any — instead of
    /// admitting a second copy, which makes at-least-once submit retry safe
    /// across the durable job log's replay.
    pub idempotency_key: Option<String>,
}

/// Admission cap on a job's explicit unit count.
pub const MAX_UNITS_PER_JOB: u32 = 64;

/// Admission cap on the `tenant` field's length.
pub const MAX_TENANT_BYTES: usize = 64;

/// Admission cap on the `idempotency_key` field's length.
pub const MAX_IDEMPOTENCY_KEY_BYTES: usize = 128;

impl Default for JobSpec {
    fn default() -> Self {
        Self {
            problem: ProblemSpec::random(32, 1),
            devices: 2,
            seed: 1,
            abs: false,
            target: None,
            time_ms: None,
            max_batches: None,
            priority: 0,
            deadline_unix_ms: None,
            units: None,
            lanes: None,
            tenant: None,
            idempotency_key: None,
        }
    }
}

impl JobSpec {
    /// Admission-time validation: a job must be well-formed *and* bounded
    /// (external cancellation alone is not a termination a tenant can rely
    /// on — a forgotten client would park a worker forever).
    pub fn validate(&self) -> Result<(), String> {
        if self.devices == 0 {
            return Err("devices must be ≥ 1".into());
        }
        if self.devices > MAX_DEVICES {
            return Err(format!("devices ≤ {MAX_DEVICES} (admission cap)"));
        }
        self.problem.validate_size()?;
        if self.target.is_none() && self.time_ms.is_none() && self.max_batches.is_none() {
            return Err("job needs a termination: target, time_ms, or max_batches".into());
        }
        if self.target.is_some() && self.time_ms.is_none() && self.max_batches.is_none() {
            return Err("a target-only job is unbounded; add time_ms or max_batches".into());
        }
        if let Some(u) = self.units {
            if u == 0 || u > MAX_UNITS_PER_JOB {
                return Err(format!("units must be in 1..={MAX_UNITS_PER_JOB}"));
            }
        }
        if let Some(l) = self.lanes {
            if l != 0 && !dabs_model::valid_lanes(l as usize) {
                return Err(format!(
                    "lanes {l} invalid (omit or 0 for scalar, or a multiple of 64 in [64, 256])"
                ));
            }
        }
        if let Some(t) = &self.tenant {
            if t.is_empty() || t.len() > MAX_TENANT_BYTES {
                return Err(format!("tenant must be 1..={MAX_TENANT_BYTES} bytes"));
            }
        }
        if let Some(k) = &self.idempotency_key {
            if k.is_empty() || k.len() > MAX_IDEMPOTENCY_KEY_BYTES {
                return Err(format!(
                    "idempotency_key must be 1..={MAX_IDEMPOTENCY_KEY_BYTES} bytes"
                ));
            }
        }
        Ok(())
    }

    /// Build the solver exactly as the CLI would for the same flags. A job
    /// runs as pool units (`DabsSolver::start_unit`), so its width is
    /// [`JobSpec::units`] and the solver's own `blocks_per_device` is 1.
    pub fn build_solver(&self) -> Result<DabsSolver, String> {
        let mut cfg = if self.abs {
            DabsConfig::abs_baseline(self.devices, 1)
        } else {
            DabsConfig::dabs(self.devices, 1)
        };
        cfg.seed = self.seed;
        cfg.params.batch_lanes = self.lanes.unwrap_or(0);
        DabsSolver::new(cfg)
    }

    /// The job's own termination conditions (the runtime adds its stop flag
    /// and deadline clamp on top).
    pub fn termination(&self) -> Termination {
        let mut t = Termination::default();
        if let Some(e) = self.target {
            t = t.with_target(e);
        }
        if let Some(ms) = self.time_ms {
            t = t.with_time(Duration::from_millis(ms));
        }
        if let Some(b) = self.max_batches {
            t = t.with_batches(b);
        }
        t
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("problem", self.problem.to_json()),
            ("devices", Json::from(self.devices)),
            ("seed", Json::from(self.seed)),
            ("abs", Json::from(self.abs)),
            ("target", self.target.into()),
            ("time_ms", self.time_ms.into()),
            ("max_batches", self.max_batches.into()),
            ("priority", Json::from(i64::from(self.priority))),
            ("deadline_unix_ms", self.deadline_unix_ms.into()),
            ("units", self.units.map(u64::from).into()),
            ("lanes", self.lanes.map(u64::from).into()),
            ("tenant", self.tenant.clone().map(Json::str).into()),
            (
                "idempotency_key",
                self.idempotency_key.clone().map(Json::str).into(),
            ),
        ])
    }

    /// Parse a spec. A field that is absent or `null` takes its default; a
    /// field of the wrong JSON type, or an integer that does not fit the
    /// field, is an error rather than a default or a truncation, so a
    /// malformed spec is refused instead of running as some other job.
    /// Fields it does not know (among them the retired `mode` and `blocks`,
    /// which older logs and clients still write) are ignored.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let problem = ProblemSpec::from_json(j.get("problem").ok_or("job needs a \"problem\"")?)?;
        let d = JobSpec::default();
        Ok(Self {
            problem,
            devices: int_field(j, "devices")?.unwrap_or(d.devices),
            seed: int_field(j, "seed")?.unwrap_or(d.seed),
            abs: field(j, "abs", "bool", Json::as_bool)?.unwrap_or(false),
            target: int_field(j, "target")?,
            time_ms: int_field(j, "time_ms")?,
            max_batches: int_field(j, "max_batches")?,
            priority: int_field(j, "priority")?.unwrap_or(0),
            deadline_unix_ms: int_field(j, "deadline_unix_ms")?,
            units: int_field(j, "units")?,
            lanes: int_field(j, "lanes")?,
            tenant: str_field(j, "tenant")?,
            idempotency_key: str_field(j, "idempotency_key")?,
        })
    }
}

/// Read spec field `key` with `read`: `None` when the field is absent or
/// `null`, an error naming `expected` when `read` refuses its value.
fn field<T>(
    j: &Json,
    key: &str,
    expected: &str,
    read: impl FnOnce(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => read(v)
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not a valid {expected}")),
    }
}

/// An integer field whose value must fit `T`.
fn int_field<T: TryFrom<i64>>(j: &Json, key: &str) -> Result<Option<T>, String> {
    field(j, key, std::any::type_name::<T>(), |v| {
        v.as_i64().and_then(|i| T::try_from(i).ok())
    })
}

fn str_field(j: &Json, key: &str) -> Result<Option<String>, String> {
    field(j, key, "string", |v| v.as_str().map(String::from))
}

/// Milliseconds since the unix epoch — the protocol's deadline clock.
pub fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let spec = JobSpec {
            problem: ProblemSpec::random(24, 9),
            devices: 3,
            seed: 42,
            abs: true,
            target: Some(-17),
            time_ms: Some(250),
            max_batches: Some(1000),
            priority: 5,
            deadline_unix_ms: Some(1_700_000_000_000),
            units: Some(4),
            lanes: Some(128),
            tenant: Some("acme".into()),
            idempotency_key: Some("req-0017".into()),
        };
        let line = spec.to_json().to_string();
        let back = JobSpec::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn lanes_validate_and_reach_the_solver_params() {
        let mut spec = JobSpec {
            max_batches: Some(10),
            ..JobSpec::default()
        };
        // Omitted and 0 are scalar; legal widths pass.
        for l in [None, Some(0), Some(64), Some(128), Some(192), Some(256)] {
            spec.lanes = l;
            spec.validate().unwrap();
        }
        for bad in [1u32, 63, 96, 320] {
            spec.lanes = Some(bad);
            assert!(spec.validate().is_err(), "lanes {bad}");
        }
        spec.lanes = Some(64);
        assert!(spec.build_solver().is_ok());
        // A bad width also fails solver construction (config validation).
        spec.lanes = Some(96);
        assert!(spec.build_solver().is_err());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let j =
            Json::parse("{\"problem\":{\"kind\":\"random\",\"n\":16},\"max_batches\":10}").unwrap();
        let spec = JobSpec::from_json(&j).unwrap();
        assert_eq!(spec.devices, 2);
        assert_eq!(spec.units, None);
        assert_eq!(spec.problem.seed, 1);
        spec.validate().unwrap();
        // The retired `mode` and `blocks` fields are ignored, whatever they
        // hold, and never written.
        for legacy in [
            "{\"problem\":{\"kind\":\"random\",\"n\":16},\"max_batches\":10,\
             \"mode\":\"threaded\",\"blocks\":3}",
            "{\"problem\":{\"kind\":\"random\",\"n\":16},\"max_batches\":10,\
             \"mode\":\"no-such-mode\",\"blocks\":999}",
        ] {
            let parsed = JobSpec::from_json(&Json::parse(legacy).unwrap()).unwrap();
            assert_eq!(parsed, spec, "{legacy}");
        }
        let line = spec.to_json().to_string();
        assert!(
            !line.contains("\"mode\"") && !line.contains("\"blocks\""),
            "{line}"
        );
    }

    /// Parse a time-bounded spec that also sets `field` to `value`; every
    /// such spec also passes `validate` without the field.
    fn parse_with(field: &str, value: &str) -> Result<JobSpec, String> {
        let doc = format!(
            "{{\"problem\":{{\"kind\":\"random\",\"n\":16}},\"time_ms\":50,\"{field}\":{value}}}"
        );
        JobSpec::from_json(&Json::parse(&doc).unwrap())
    }

    fn assert_refused(field: &str, value: &str) {
        let err = parse_with(field, value).expect_err(value);
        assert!(err.contains(field), "{field}: {err}");
    }

    #[test]
    fn units_past_u32_are_refused_not_truncated_to_one_unit() {
        assert_refused("units", "4294967297");
    }

    #[test]
    fn lanes_past_u32_are_refused_not_truncated_to_bulk_mode() {
        assert_refused("lanes", "4294967360");
    }

    #[test]
    fn priority_past_i32_is_refused_not_wrapped_negative() {
        assert_refused("priority", "2147483648");
    }

    #[test]
    fn negative_units_are_refused_not_dropped() {
        assert_refused("units", "-3");
    }

    #[test]
    fn negative_max_batches_are_refused_not_dropped() {
        assert_refused("max_batches", "-5");
    }

    #[test]
    fn mistyped_fields_are_refused_and_null_keeps_the_default() {
        for (field, value) in [
            ("devices", "-1"),
            ("seed", "\"7\""),
            ("seed", "18446744073709551615"),
            ("abs", "\"yes\""),
            ("target", "1.5"),
            ("deadline_unix_ms", "-1"),
            ("tenant", "5"),
            ("idempotency_key", "[]"),
        ] {
            assert_refused(field, value);
        }
        let problem = |p: &str| {
            let doc = format!("{{\"problem\":{p},\"max_batches\":10}}");
            JobSpec::from_json(&Json::parse(&doc).unwrap())
        };
        for bad in [
            "{\"kind\":\"random\",\"n\":-16}",
            "{\"kind\":\"random\",\"n\":16.5}",
            "{\"kind\":\"random\",\"seed\":-2}",
            "{\"kind\":\"random\",\"kernel\":3}",
            "{\"kind\":\"inline\",\"inline\":7}",
            "{\"kind\":9}",
        ] {
            assert!(problem(bad).is_err(), "{bad}");
        }
        // Absent and null are the same default, as `to_json` writes them.
        let absent = problem("{\"kind\":\"random\"}").unwrap();
        let null =
            problem("{\"kind\":\"random\",\"n\":null,\"seed\":null,\"kernel\":null}").unwrap();
        assert_eq!(null, absent);
        for field in [
            "units",
            "lanes",
            "priority",
            "max_batches",
            "devices",
            "abs",
        ] {
            let spec = parse_with(field, "null").unwrap();
            assert_eq!(spec, parse_with("tenant", "null").unwrap(), "{field}");
            spec.validate().unwrap();
        }
    }

    #[test]
    fn validation_demands_a_bound() {
        let mut spec = JobSpec::default();
        assert!(spec.validate().is_err(), "no termination at all");
        spec.target = Some(0);
        assert!(spec.validate().is_err(), "target alone is unbounded");
        spec.max_batches = Some(10);
        spec.validate().unwrap();
    }

    #[test]
    fn admission_caps_bound_untrusted_job_shape() {
        let bounded = |problem| JobSpec {
            problem,
            max_batches: Some(1),
            ..JobSpec::default()
        };
        // A generator n past the cap is refused at admission — before the
        // uncancellable O(n²) build could pin a worker.
        let err = bounded(ProblemSpec::random(MAX_PROBLEM_N + 1, 1))
            .validate()
            .unwrap_err();
        assert!(err.contains("admission cap"), "{err}");
        assert!(bounded(ProblemSpec::random(MAX_PROBLEM_N, 1))
            .validate()
            .is_ok());
        // QAP kinds square their size into variables: a tighter cap.
        let qap = ProblemSpec {
            kind: "tai".into(),
            n: Some(MAX_QAP_SIZE + 1),
            seed: 1,
            inline: None,
            kernel: KernelChoice::Auto,
        };
        assert!(bounded(qap).validate().is_err());
        // An inline header declaring a huge n must not reach the parser's
        // `vec![0; n]` — including via a second header that the full parser
        // would let overwrite a small first one.
        for text in [
            "p qubo 0 999999999999 0 0\n",
            "p qubo 0 4 0 0\np qubo 0 999999999999 0 0\n",
        ] {
            let err = bounded(ProblemSpec::inline_text(text))
                .validate()
                .unwrap_err();
            assert!(err.contains("admission cap"), "{err}");
        }
        assert!(bounded(ProblemSpec::inline_text("p qubo 0 4 0 0\n"))
            .validate()
            .is_ok());
        // The pool count is capped too.
        let wide = JobSpec {
            devices: MAX_DEVICES + 1,
            max_batches: Some(1),
            ..JobSpec::default()
        };
        assert!(wide.validate().is_err());
    }

    #[test]
    fn inline_problem_builds_and_round_trips() {
        let mut b = dabs_model::QuboBuilder::new(4);
        b.add_linear(0, -3).add_quadratic(1, 2, 5);
        let q = b.build().unwrap();
        let spec = ProblemSpec::inline_text(dabs_model::io::write_qubo(&q));
        let wire =
            ProblemSpec::from_json(&Json::parse(&spec.to_json().to_string()).unwrap()).unwrap();
        let (model, name) = wire.build().unwrap();
        assert_eq!(model, q);
        assert_eq!(name, "inline(n=4)");
    }

    #[test]
    fn kernel_choice_rides_the_wire_and_selects_the_backend() {
        use dabs_model::KernelKind;
        // Default stays auto and is omitted-tolerant on parse.
        let j = Json::parse("{\"kind\":\"random\",\"n\":16}").unwrap();
        assert_eq!(
            ProblemSpec::from_json(&j).unwrap().kernel,
            KernelChoice::Auto
        );
        // Explicit choices round-trip and drive model selection.
        for (choice, kind) in [
            (KernelChoice::Csr, KernelKind::Csr),
            (KernelChoice::Dense, KernelKind::Dense),
        ] {
            let spec = ProblemSpec {
                kernel: choice,
                ..ProblemSpec::random(24, 5)
            };
            let wire =
                ProblemSpec::from_json(&Json::parse(&spec.to_json().to_string()).unwrap()).unwrap();
            assert_eq!(wire, spec);
            let (model, _) = wire.build().unwrap();
            assert_eq!(model.kernel_kind(), kind, "{:?}", choice);
        }
        // Garbage is rejected at parse time, before any build work.
        let j = Json::parse("{\"kind\":\"random\",\"kernel\":\"gpu\"}").unwrap();
        assert!(ProblemSpec::from_json(&j).is_err());
    }

    #[test]
    fn forced_dense_kernel_is_bounded_at_admission() {
        use dabs_model::DENSE_AUTO_MAX_N;
        let dense = |spec: ProblemSpec| ProblemSpec {
            kernel: KernelChoice::Dense,
            ..spec
        };
        // At the cap: admitted (identical memory exposure to an auto-dense
        // QAP instance at its cap).
        assert!(dense(ProblemSpec::random(DENSE_AUTO_MAX_N, 1))
            .validate_size()
            .is_ok());
        // The guard binds only when MAX_PROBLEM_N and the dense ceiling
        // diverge; simulate that with an n past the dense cap.
        let err = dense(ProblemSpec::random(DENSE_AUTO_MAX_N + 1, 1))
            .validate_size()
            .unwrap_err();
        assert!(err.contains("dense admission cap"), "{err}");
        // QAP kinds square into n² variables before the dense check.
        let qap = ProblemSpec {
            kind: "tai".into(),
            n: Some(65),
            seed: 1,
            inline: None,
            kernel: KernelChoice::Dense,
        };
        let err = qap.validate_size().unwrap_err();
        assert!(err.contains("dense admission cap"), "{err}");
        // Inline declared-n headers are bounded the same way.
        let inline = dense(ProblemSpec::inline_text(format!(
            "p qubo 0 {} 0 0\n",
            DENSE_AUTO_MAX_N + 1
        )));
        assert!(inline.validate_size().is_err());
        // CSR/auto behaviour is unchanged.
        assert!(ProblemSpec::random(DENSE_AUTO_MAX_N, 1)
            .validate_size()
            .is_ok());
    }

    #[test]
    fn generator_kinds_build() {
        for kind in ["k2000", "g22", "random"] {
            let spec = ProblemSpec {
                kind: kind.into(),
                n: Some(32),
                seed: 3,
                inline: None,
                kernel: KernelChoice::Auto,
            };
            let (model, _) = spec.build().unwrap_or_else(|e| panic!("{kind}: {e}"));
            assert!(model.n() > 0);
        }
        assert!(ProblemSpec {
            kind: "nope".into(),
            n: None,
            seed: 1,
            inline: None,
            kernel: KernelChoice::Auto
        }
        .build()
        .is_err());
    }

    fn dense_random(n: usize, seed: u64) -> ProblemSpec {
        ProblemSpec {
            kernel: KernelChoice::Dense,
            ..ProblemSpec::random(n, seed)
        }
    }

    fn built_bytes(spec: &ProblemSpec) -> usize {
        spec.build().unwrap().0.heap_bytes()
    }

    fn held(cache: &ModelCache) -> usize {
        cache.obs().cache_bytes.get() as usize
    }

    #[test]
    fn kernel_override_is_part_of_the_model_key() {
        use dabs_model::KernelKind;
        let cache = ModelCache::new(MODEL_CACHE_BUDGET);
        // Density 0.3 at n=48: `auto` selects dense.
        let auto = ProblemSpec::random(48, 3);
        let csr = ProblemSpec {
            kernel: KernelChoice::Csr,
            ..auto.clone()
        };
        let a = cache.get_or_build(&auto).unwrap();
        let c = cache.get_or_build(&csr).unwrap();
        assert!(!Arc::ptr_eq(&a, &c), "auto and csr must not share a model");
        assert_eq!(a.kernel_kind(), KernelKind::Dense);
        assert_eq!(c.kernel_kind(), KernelKind::Csr);
        assert_eq!(*a, *c, "same weights on either kernel");
        assert!(Arc::ptr_eq(&cache.get_or_build(&csr).unwrap(), &c));
        let obs = cache.obs();
        assert_eq!((obs.cache_misses.get(), obs.cache_hits.get()), (2, 1));
        assert_eq!(held(&cache), a.heap_bytes() + c.heap_bytes());
    }

    #[test]
    fn cache_evicts_least_recently_used_within_its_budget() {
        let [a, b, c] = [11, 12, 13].map(|seed| dense_random(64, seed));
        let [ab, bb, cb] = [&a, &b, &c].map(built_bytes);
        // A and B fit; C fits only once one of them goes.
        let budget = ab + bb + cb / 2;
        assert!(ab + cb <= budget && bb + cb <= budget);
        let cache = ModelCache::new(budget);
        let kept_a = cache.get_or_build(&a).unwrap();
        cache.get_or_build(&b).unwrap();
        assert_eq!(held(&cache), ab + bb);
        // Touch A, so B is the least recently used when C arrives.
        assert!(Arc::ptr_eq(&cache.get_or_build(&a).unwrap(), &kept_a));
        cache.get_or_build(&c).unwrap();
        let obs = cache.obs();
        assert_eq!(obs.cache_evictions.get(), 1);
        assert_eq!(held(&cache), ab + cb);
        assert!(held(&cache) <= budget);
        // A and C are still kept; B was the one evicted.
        let misses = obs.cache_misses.get();
        assert!(Arc::ptr_eq(&cache.get_or_build(&a).unwrap(), &kept_a));
        cache.get_or_build(&c).unwrap();
        assert_eq!(obs.cache_misses.get(), misses);
        cache.get_or_build(&b).unwrap();
        assert_eq!(obs.cache_misses.get(), misses + 1, "B must be rebuilt");
        assert!(held(&cache) <= budget);
    }

    #[test]
    fn a_model_larger_than_the_budget_is_served_but_not_kept() {
        let big = dense_random(64, 21);
        let cache = ModelCache::new(built_bytes(&big) - 1);
        let first = cache.get_or_build(&big).unwrap();
        assert_eq!(first.n(), 64);
        assert_eq!(held(&cache), 0);
        let second = cache.get_or_build(&big).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        let obs = cache.obs();
        assert_eq!((obs.cache_misses.get(), obs.cache_hits.get()), (2, 0));
        assert_eq!(obs.cache_evictions.get(), 0);
    }

    #[test]
    fn inline_documents_bypass_the_cache() {
        let mut b = dabs_model::QuboBuilder::new(4);
        b.add_linear(0, -3).add_quadratic(1, 2, 5);
        let spec = ProblemSpec::inline_text(dabs_model::io::write_qubo(&b.build().unwrap()));
        assert_eq!(spec.model_key(), None);
        let cache = ModelCache::new(MODEL_CACHE_BUDGET);
        let first = cache.get_or_build(&spec).unwrap();
        let second = cache.get_or_build(&spec).unwrap();
        assert_eq!(*first, *second);
        assert!(
            !Arc::ptr_eq(&first, &second),
            "every inline job builds its own"
        );
        let obs = cache.obs();
        assert_eq!(obs.cache_hits.get(), 0);
        assert_eq!(obs.cache_misses.get(), 0);
        assert_eq!(held(&cache), 0);
        assert_eq!(obs.build_us.count(), 2, "each inline build is timed");
    }

    #[test]
    fn build_errors_are_returned_and_never_kept() {
        let cache = ModelCache::new(MODEL_CACHE_BUDGET);
        let bad = ProblemSpec {
            kind: "nope".into(),
            ..ProblemSpec::random(8, 1)
        };
        assert!(cache.get_or_build(&bad).is_err());
        assert!(cache.get_or_build(&bad).is_err());
        assert_eq!(cache.obs().cache_misses.get(), 2);
        assert_eq!(held(&cache), 0);
    }

    #[test]
    fn spec_solver_matches_cli_construction() {
        let spec = JobSpec {
            devices: 2,
            seed: 77,
            max_batches: Some(60),
            ..JobSpec::default()
        };
        let solver = spec.build_solver().unwrap();
        let mut cfg = DabsConfig::dabs(2, 1);
        cfg.seed = 77;
        assert_eq!(solver.config().seed, cfg.seed);
        assert_eq!(solver.config().devices, cfg.devices);
    }
}
