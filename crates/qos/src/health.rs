//! The drainer health monitor: heartbeat cells, a missed-deadline state
//! machine, and the supervisor-facing dead-drainer queue.
//!
//! Modeled on the ARINC-653 partition health monitor: each drainer owns
//! a [`Heartbeat`] handle it beats at the top of every sweep loop; a
//! supervisor polls the monitor on a fixed interval. A drainer that has
//! not beaten for one deadline is `Suspect` (it may just be inside a
//! long drain); after two deadlines it is `Dead`, surfaces exactly once
//! in [`HealthMonitor::take_dead`], and stays dead until the supervisor
//! — having reclaimed the corpse's claimed readiness bits and respawned
//! the thread — calls [`HealthMonitor::revive`].
//!
//! ```text
//!            beat                    deadline missed
//!   Alive ◄──────── Suspect ◄──────────────┐
//!     │  beat ▲        │ 2nd deadline      │
//!     └───────┘        ▼                   │
//!                    Dead ──take_dead──► supervisor: reclaim + respawn
//!                      ▲                   │
//!                      └──────revive───────┘
//! ```
//!
//! A `Dead` verdict is final from the monitor's point of view: a beat
//! arriving after the verdict does not resurrect the cell (the
//! supervisor may already be respawning), only `revive` does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;
use secmod_obs::Counter;

/// Supervisor tuning: how stale a heartbeat may go, and how often the
/// supervisor checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthConfig {
    /// A heartbeat older than this makes the drainer `Suspect`; older
    /// than twice this, `Dead`.
    pub deadline: Duration,
    /// How often the plane supervisor polls the monitor.
    pub check_interval: Duration,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            deadline: Duration::from_millis(25),
            check_interval: Duration::from_millis(5),
        }
    }
}

impl HealthConfig {
    /// A config with `deadline` and a check interval of a fifth of it.
    pub fn with_deadline(deadline: Duration) -> HealthConfig {
        HealthConfig {
            deadline,
            check_interval: (deadline / 5).max(Duration::from_millis(1)),
        }
    }
}

/// A drainer's liveness as judged from its heartbeat age.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DrainerState {
    /// Beat within the deadline.
    Alive,
    /// One deadline missed — possibly just a long drain.
    Suspect,
    /// Two deadlines missed (or verdict already passed): gone for good
    /// until the supervisor revives the seat.
    Dead,
}

#[derive(Debug, Default)]
struct HeartCell {
    /// Nanoseconds since the monitor's epoch at the last beat.
    last_beat_ns: AtomicU64,
    /// Set once the cell surfaced in `take_dead`; cleared by `revive`.
    dead: AtomicBool,
}

/// The beating end of one drainer's heartbeat; cheap to clone into the
/// drainer thread.
#[derive(Clone, Debug)]
pub struct Heartbeat {
    cell: Arc<HeartCell>,
    epoch: Instant,
}

impl Heartbeat {
    /// Record a beat (call at the top of every sweep loop).
    pub fn beat(&self) {
        self.cell
            .last_beat_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
    }
}

/// The monitor: one heartbeat cell per drainer seat, plus the recovery
/// counters the plane's stats absorb at shutdown.
#[derive(Debug)]
pub struct HealthMonitor {
    epoch: Instant,
    deadline: Duration,
    cells: RwLock<Vec<Arc<HeartCell>>>,
    /// Drainers respawned after a `Dead` verdict.
    pub restarts: Counter,
    /// Readiness bits reclaimed from dead drainers' claim ledgers.
    pub reclaimed: Counter,
}

impl HealthMonitor {
    /// A monitor with the given miss deadline.
    pub fn new(deadline: Duration) -> HealthMonitor {
        HealthMonitor {
            epoch: Instant::now(),
            deadline: deadline.max(Duration::from_micros(1)),
            cells: RwLock::new(Vec::new()),
            restarts: Counter::default(),
            reclaimed: Counter::default(),
        }
    }

    /// Register a new drainer seat; returns its index and the beating
    /// handle (already beaten once, so a fresh seat is `Alive`).
    pub fn register(&self) -> (usize, Heartbeat) {
        let cell = Arc::new(HeartCell::default());
        let hb = Heartbeat {
            cell: Arc::clone(&cell),
            epoch: self.epoch,
        };
        hb.beat();
        let mut cells = self.cells.write();
        cells.push(cell);
        (cells.len() - 1, hb)
    }

    /// Registered drainer seats.
    pub fn seats(&self) -> usize {
        self.cells.read().len()
    }

    /// The current verdict for seat `idx`.
    pub fn state_of(&self, idx: usize) -> DrainerState {
        self.state_at(idx, self.epoch.elapsed())
    }

    /// The verdict for seat `idx` as of `now` (time since the monitor's
    /// epoch).
    fn state_at(&self, idx: usize, now: Duration) -> DrainerState {
        let cells = self.cells.read();
        let Some(cell) = cells.get(idx) else {
            return DrainerState::Dead;
        };
        self.judge(cell, now)
    }

    fn judge(&self, cell: &HeartCell, now: Duration) -> DrainerState {
        if cell.dead.load(Ordering::Acquire) {
            return DrainerState::Dead;
        }
        let last = Duration::from_nanos(cell.last_beat_ns.load(Ordering::Acquire));
        let stale = now.saturating_sub(last);
        if stale > self.deadline * 2 {
            DrainerState::Dead
        } else if stale > self.deadline {
            DrainerState::Suspect
        } else {
            DrainerState::Alive
        }
    }

    /// Seats newly judged `Dead` since the last call — each surfaces
    /// exactly once, so the supervisor reclaims/respawns once per death.
    pub fn take_dead(&self) -> Vec<usize> {
        self.take_dead_at(self.epoch.elapsed())
    }

    /// [`HealthMonitor::take_dead`] as of `now` (time since the epoch).
    fn take_dead_at(&self, now: Duration) -> Vec<usize> {
        let cells = self.cells.read();
        let mut dead = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            if self.judge(cell, now) == DrainerState::Dead
                && !cell.dead.swap(true, Ordering::AcqRel)
            {
                dead.push(idx);
            }
        }
        dead
    }

    /// Re-arm seat `idx` after a respawn: a fresh heartbeat handle, the
    /// verdict cleared back to `Alive`.
    pub fn revive(&self, idx: usize) -> Option<Heartbeat> {
        let cells = self.cells.read();
        let cell = cells.get(idx)?;
        let hb = Heartbeat {
            cell: Arc::clone(cell),
            epoch: self.epoch,
        };
        hb.beat();
        cell.dead.store(false, Ordering::Release);
        Some(hb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// When seat `idx` last beat, on the monitor's clock. The verdicts
    /// below are taken at synthetic times relative to it, so no test
    /// depends on how long a sleep really lasted.
    fn last_beat(mon: &HealthMonitor, idx: usize) -> Duration {
        Duration::from_nanos(mon.cells.read()[idx].last_beat_ns.load(Ordering::Acquire))
    }

    #[test]
    fn fresh_seats_are_alive_and_deadlines_escalate() {
        let mon = HealthMonitor::new(2 * MS);
        let (idx, hb) = mon.register();
        let beat = last_beat(&mon, idx);
        assert_eq!(mon.state_at(idx, beat), DrainerState::Alive);
        assert_eq!(mon.state_at(idx, beat + 2 * MS), DrainerState::Alive);
        assert_eq!(mon.state_at(idx, beat + 3 * MS), DrainerState::Suspect);
        assert_eq!(mon.state_at(idx, beat + 4 * MS), DrainerState::Suspect);
        hb.beat();
        let beat = last_beat(&mon, idx);
        assert_eq!(
            mon.state_at(idx, beat),
            DrainerState::Alive,
            "beat recovers"
        );
        assert_eq!(mon.state_at(idx, beat + 5 * MS), DrainerState::Dead);
    }

    #[test]
    fn take_dead_surfaces_each_death_once_and_revive_rearms() {
        let mon = HealthMonitor::new(MS);
        let (idx, hb) = mon.register();
        let beat = last_beat(&mon, idx);
        assert_eq!(mon.take_dead_at(beat + MS), Vec::<usize>::new());
        assert_eq!(mon.take_dead_at(beat + 4 * MS), vec![idx]);
        assert_eq!(
            mon.take_dead_at(beat + 4 * MS),
            Vec::<usize>::new(),
            "verdict is one-shot"
        );
        // A late beat from the corpse does not resurrect the seat.
        hb.beat();
        assert_eq!(mon.state_at(idx, last_beat(&mon, idx)), DrainerState::Dead);
        let hb2 = mon.revive(idx).expect("seat exists");
        assert_eq!(mon.state_at(idx, last_beat(&mon, idx)), DrainerState::Alive);
        drop(hb2);
        assert_eq!(mon.seats(), 1);
    }

    #[test]
    fn out_of_range_seats_read_dead() {
        let mon = HealthMonitor::new(MS);
        assert_eq!(mon.state_of(7), DrainerState::Dead);
        assert!(mon.revive(7).is_none());
    }
}
