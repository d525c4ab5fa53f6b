//! dabs-chaos: deterministic, seed-driven fault injection for the server
//! stack.
//!
//! A [`FaultPlan`] names a set of *sites* — places in the WAL, the worker
//! pool, and the event loop that have agreed to ask "should I fail here?"
//! before doing their real work — and gives each site an injection
//! probability, an optional cap, and a shared seed. Every decision comes
//! from a counter-indexed SplitMix64 stream, so a plan is reproducible:
//! the same spec over the same draw sequence injects the same faults, and
//! the per-site injected counters let a test assert its observability
//! gauges (`wal_errors`, `worker_restarts`, …) against exactly what the
//! plan injected rather than a guess.
//!
//! The hook is zero-cost when chaos is off: every site holds an
//! `Option<Arc<FaultPlan>>` and the common path is a `None` check. A
//! server arms a plan only from [`ServerConfig::chaos`], which
//! `serve --chaos <spec>` sets and announces with a `CHAOS ARMED` banner;
//! tests build their plan with [`FaultPlan::parse`] and hand it to that
//! field, or straight to the pool or the job log they exercise.
//!
//! [`ServerConfig::chaos`]: crate::ServerConfig::chaos
//!
//! Spec grammar (comma-separated, order-free):
//!
//! ```text
//! seed=42,unit_panic=1x3,wal_fsync=0.5x2,read=0.05,stall_ms=20
//! ```
//!
//! `seed=N` seeds the draw streams (default 1); `<site>=<prob>[x<max>]`
//! arms a site with probability `prob` in `[0, 1]`, capped at `max` total
//! injections (uncapped without the suffix) — caps are what give a fault
//! storm a deterministic heal point; `stall_ms=N` sets the duration of an
//! injected `unit_stall`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One place in the stack that consults the plan before doing real work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// `Wal::append` body write: the record is dropped as if `write_all`
    /// returned EIO.
    WalWrite,
    /// Flusher `sync_data`: the fsync reports failure.
    WalFsync,
    /// Worker pool, immediately after a unit is marked started: the unit
    /// panics.
    UnitPanic,
    /// Worker pool, between unit steps: the unit sleeps `stall_ms`.
    UnitStall,
    /// Event loop accept path: the freshly accepted connection is dropped
    /// as if `accept` returned EIO.
    Accept,
    /// Event loop read path: the connection dies as if `read` returned EIO.
    Read,
    /// Event loop write path: the connection dies as if `write` returned
    /// EIO.
    Write,
    /// Worker pop path: the worker thread exits (its popped unit is
    /// requeued first, so no work is lost) — exercises the supervisor's
    /// dead-thread respawn without poisoning anything.
    WorkerKill,
}

impl FaultSite {
    /// Every site, in stable index order.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::WalWrite,
        FaultSite::WalFsync,
        FaultSite::UnitPanic,
        FaultSite::UnitStall,
        FaultSite::Accept,
        FaultSite::Read,
        FaultSite::Write,
        FaultSite::WorkerKill,
    ];

    /// Stable spec/wire name.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WalWrite => "wal_write",
            FaultSite::WalFsync => "wal_fsync",
            FaultSite::UnitPanic => "unit_panic",
            FaultSite::UnitStall => "unit_stall",
            FaultSite::Accept => "accept",
            FaultSite::Read => "read",
            FaultSite::Write => "write",
            FaultSite::WorkerKill => "worker_kill",
        }
    }

    /// Inverse of [`FaultSite::name`].
    pub fn by_name(name: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|s| s.name() == name)
    }

    fn index(self) -> usize {
        FaultSite::ALL
            .iter()
            .position(|&s| s == self)
            .expect("site in ALL")
    }
}

/// Probability resolution: probabilities are stored in parts-per-million
/// so the draw stays in integer arithmetic.
const PPM: u64 = 1_000_000;

/// Per-site arming state. `draws` indexes the site's decision stream;
/// `injected` is the ground truth a soak test compares gauges against.
#[derive(Debug)]
struct SiteState {
    prob_ppm: u64,
    max: u64,
    draws: AtomicU64,
    injected: AtomicU64,
}

impl SiteState {
    fn off() -> SiteState {
        SiteState {
            prob_ppm: 0,
            max: u64::MAX,
            draws: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }
}

/// A parsed, armed fault plan. Shared (`Arc`) between every subsystem of
/// one server so the injected counters aggregate across them.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    stall_ms: u64,
    sites: [SiteState; 8],
}

/// SplitMix64 — the repo-standard seed scrambler (see `dabs-rng`);
/// duplicated here because the server crate injects faults below the
/// solver layer and must not depend on solver RNG state.
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Parse a chaos spec (grammar in the module docs).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 1,
            stall_ms: 10,
            sites: [
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
                SiteState::off(),
            ],
        };
        let mut armed = false;
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: {part:?} is not key=value"))?;
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad seed {value:?}"))?;
                }
                "stall_ms" => {
                    plan.stall_ms = value
                        .parse()
                        .map_err(|_| format!("chaos spec: bad stall_ms {value:?}"))?;
                }
                site_name => {
                    let site = FaultSite::by_name(site_name).ok_or_else(|| {
                        format!(
                            "chaos spec: unknown site {site_name:?} (sites: {})",
                            FaultSite::ALL.map(FaultSite::name).join(", ")
                        )
                    })?;
                    let (prob_str, max) = match value.split_once('x') {
                        Some((p, m)) => (
                            p,
                            m.parse::<u64>()
                                .map_err(|_| format!("chaos spec: bad cap in {part:?}"))?,
                        ),
                        None => (value, u64::MAX),
                    };
                    let prob: f64 = prob_str
                        .parse()
                        .map_err(|_| format!("chaos spec: bad probability in {part:?}"))?;
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("chaos spec: probability in {part:?} not in [0, 1]"));
                    }
                    let state = &mut plan.sites[site.index()];
                    state.prob_ppm = (prob * PPM as f64).round() as u64;
                    state.max = max;
                    armed = armed || state.prob_ppm > 0;
                }
            }
        }
        if !armed {
            return Err("chaos spec arms no site (e.g. unit_panic=1x3)".into());
        }
        Ok(plan)
    }

    /// Should this site fail right now? Draws the site's next decision
    /// from its seeded stream; respects the site's injection cap.
    pub fn should_inject(&self, site: FaultSite) -> bool {
        let state = &self.sites[site.index()];
        if state.prob_ppm == 0 {
            return false;
        }
        let draw = state.draws.fetch_add(1, Ordering::Relaxed);
        let tag = (site.index() as u64 + 1) << 56;
        let hit = splitmix64(self.seed ^ tag ^ draw) % PPM < state.prob_ppm;
        if !hit {
            return false;
        }
        // Claim a cap slot; back out when the storm is spent.
        let claimed = state.injected.fetch_add(1, Ordering::Relaxed);
        if claimed >= state.max {
            state.injected.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// How many times this site actually injected — the ground truth the
    /// chaos soak compares the server's gauges against.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.sites[site.index()].injected.load(Ordering::Relaxed)
    }

    /// True once every armed site has reached its cap — the storm's
    /// deterministic heal point (always false if any armed site is
    /// uncapped).
    pub fn spent(&self) -> bool {
        self.sites.iter().all(|s| {
            s.prob_ppm == 0 || (s.max != u64::MAX && s.injected.load(Ordering::Relaxed) >= s.max)
        })
    }

    /// Duration of an injected `unit_stall`.
    pub fn stall_ms(&self) -> u64 {
        self.stall_ms
    }
}

/// The zero-cost-when-off hook every site calls: `None` (the production
/// state) is a single branch.
pub fn chaos_hit(plan: &Option<Arc<FaultPlan>>, site: FaultSite) -> bool {
    match plan {
        None => false,
        Some(p) => p.should_inject(site),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_round_trip() {
        for site in FaultSite::ALL {
            assert_eq!(FaultSite::by_name(site.name()), Some(site));
        }
        assert_eq!(FaultSite::by_name("nope"), None);
    }

    #[test]
    fn parse_full_grammar() {
        let plan =
            FaultPlan::parse("seed=42, unit_panic=1x3, wal_fsync=0.5x2, read=0.05, stall_ms=20")
                .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.stall_ms(), 20);
        assert_eq!(plan.sites[FaultSite::UnitPanic.index()].prob_ppm, PPM);
        assert_eq!(plan.sites[FaultSite::UnitPanic.index()].max, 3);
        assert_eq!(plan.sites[FaultSite::WalFsync.index()].prob_ppm, PPM / 2);
        assert_eq!(plan.sites[FaultSite::Read.index()].prob_ppm, 50_000);
        assert_eq!(plan.sites[FaultSite::Read.index()].max, u64::MAX);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "seed=7",            // arms nothing
            "unit_panic",        // no value
            "bogus_site=1",      // unknown site
            "unit_panic=2",      // probability out of range
            "unit_panic=moo",    // unparseable probability
            "unit_panic=1xmoo",  // unparseable cap
            "seed=moo,read=0.1", // unparseable seed
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "spec {bad:?} should fail");
        }
    }

    #[test]
    fn probability_one_always_injects_up_to_cap() {
        let plan = FaultPlan::parse("seed=1,unit_panic=1x4").unwrap();
        let hits = (0..100)
            .filter(|_| plan.should_inject(FaultSite::UnitPanic))
            .count();
        assert_eq!(hits, 4);
        assert_eq!(plan.injected(FaultSite::UnitPanic), 4);
        assert!(plan.spent());
    }

    #[test]
    fn unarmed_sites_never_inject() {
        let plan = FaultPlan::parse("seed=1,unit_panic=1x1").unwrap();
        for _ in 0..50 {
            assert!(!plan.should_inject(FaultSite::WalFsync));
        }
        assert_eq!(plan.injected(FaultSite::WalFsync), 0);
    }

    #[test]
    fn draw_streams_are_deterministic_per_seed() {
        let decisions = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::parse(&format!("seed={seed},read=0.3")).unwrap();
            (0..200)
                .map(|_| plan.should_inject(FaultSite::Read))
                .collect()
        };
        assert_eq!(decisions(7), decisions(7));
        assert_ne!(decisions(7), decisions(8));
        let hits = decisions(7).iter().filter(|&&b| b).count();
        // ~30% of 200 draws; wide band, but never 0 or all.
        assert!((20..=110).contains(&hits), "{hits} hits");
    }

    #[test]
    fn fractional_probability_respects_cap() {
        let plan = FaultPlan::parse("seed=3,write=0.5x5").unwrap();
        let hits = (0..1000)
            .filter(|_| plan.should_inject(FaultSite::Write))
            .count();
        assert_eq!(hits, 5);
        assert!(plan.spent());
    }

    #[test]
    fn uncapped_armed_site_is_never_spent() {
        let plan = FaultPlan::parse("seed=1,read=0.5").unwrap();
        for _ in 0..100 {
            plan.should_inject(FaultSite::Read);
        }
        assert!(!plan.spent());
    }

    #[test]
    fn chaos_hit_is_off_for_none() {
        assert!(!chaos_hit(&None, FaultSite::UnitPanic));
        let plan = Arc::new(FaultPlan::parse("seed=1,unit_panic=1x1").unwrap());
        assert!(chaos_hit(&Some(Arc::clone(&plan)), FaultSite::UnitPanic));
        assert!(!chaos_hit(&Some(plan), FaultSite::UnitPanic));
    }
}
