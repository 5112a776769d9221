//! Shared test-world setup for the integration suites.
//!
//! Every suite used to hand-roll the same stack (simulated clock one
//! second past zero so Timestamp::ZERO is strictly in the past, Spanner,
//! a default Firestore database, a Real-time Cache wired as the commit
//! observer). Build it once here; suites layer their specifics (rules,
//! tablet splits, durability, fault plans) on top.

#![allow(dead_code)]

use firestore_core::FirestoreDatabase;
use realtime::{RealtimeCache, RealtimeOptions};
use simkit::{Duration, SimClock};
use spanner::SpannerDatabase;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Environment variable `name` parsed as `T`, or `default` when unset — how
/// every suite reads its replay seed and case count. A set but malformed
/// value panics, so a mistyped replay never silently runs the fixed seed.
pub fn env_or<T: FromStr>(name: &str, default: T) -> T {
    env_var(name).unwrap_or(default)
}

/// [`env_or`] for suites whose fixed seeds change when the variable is set:
/// `None` when unset, a panic when malformed.
pub fn env_var<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse() {
        Ok(value) => Some(value),
        Err(_) => panic!(
            "{name} must be a {}, got {raw:?}",
            std::any::type_name::<T>()
        ),
    }
}

/// Where a suite writes the artifact `file` (a counterexample, a golden
/// mismatch): the workspace `target/`, which CI uploads. Tests run from
/// `crates/bench`, so a relative `target/` would not exist; the directory
/// is created here.
pub fn artifact_path(file: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join(file);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the artifact directory");
    }
    path
}

/// Rules granting everything — for suites exercising layers below
/// security.
pub const OPEN_RULES: &str = r#"
service cloud.firestore {
  match /databases/{db}/documents {
    match /{document=**} { allow read, write; }
  }
}
"#;

/// The assembled stack most integration tests start from.
pub struct World {
    /// Simulated clock shared by every component.
    pub clock: SimClock,
    /// The storage substrate.
    pub spanner: SpannerDatabase,
    /// The Firestore API layer (no rules set; see [`world_with_rules`]).
    pub db: FirestoreDatabase,
    /// The Real-time Cache, registered as the database's commit observer.
    pub cache: RealtimeCache,
}

/// Build the standard stack: clock advanced 1s, Spanner, default database,
/// Real-time Cache observing commits.
pub fn world() -> World {
    let clock = SimClock::new();
    clock.advance(Duration::from_secs(1));
    let spanner = SpannerDatabase::new(clock.clone());
    let db = FirestoreDatabase::create_default(spanner.clone());
    let cache = RealtimeCache::new(spanner.truetime().clone(), RealtimeOptions::default());
    db.set_observer(cache.observer_for(db.directory()));
    World {
        clock,
        spanner,
        db,
        cache,
    }
}

/// [`world`] with [`OPEN_RULES`] installed.
pub fn world_with_rules() -> World {
    let w = world();
    w.db.set_rules(OPEN_RULES).unwrap();
    w
}
