//! The daemon's job registry and dependency gate.
//!
//! Clients name jobs and declare `depends_on` edges between names (a
//! job DAG *of* job DAGs — the engine schedules coflows inside a job,
//! the registry sequences whole jobs, like gflow's queue layer). A job
//! is **held** until every dependency has completed, then released for
//! engine admission. Cancelling a job cascades to every held
//! descendant: they can never run.
//!
//! The registry is engine-agnostic (pure bookkeeping over names and
//! ids) so the gate logic is unit-testable without a socket or a
//! simulation; the server layer glues it to a live
//! [`Engine`](gurita_sim::runtime::Engine).

use gurita_model::JobSpec;
use std::collections::HashMap;

/// Registry-level lifecycle of a named job. The server refines
/// `Admitted` into queued/running via the engine's phase when building
/// client views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateState {
    /// Waiting on dependencies; spec parked in the registry.
    Held,
    /// Released into the engine.
    Admitted,
    /// Completed.
    Done,
    /// Cancelled (directly or by cascade from a cancelled ancestor).
    Cancelled,
}

impl GateState {
    /// Slot of the state in [`Registry`]'s per-state counters.
    fn slot(self) -> usize {
        match self {
            GateState::Held => 0,
            GateState::Admitted => 1,
            GateState::Done => 2,
            GateState::Cancelled => 3,
        }
    }
}

/// One registered job.
#[derive(Debug)]
pub struct Entry {
    /// Client-assigned name (unique).
    pub name: String,
    /// Dense daemon-assigned id; doubles as the engine `JobId` index.
    pub id: usize,
    /// Names this job waits on.
    pub deps: Vec<String>,
    /// Gate state.
    pub state: GateState,
    /// The spec, parked while held (`None` once released or cancelled).
    pub spec: Option<JobSpec>,
    /// Total coflows in the job's DAG (for progress views).
    pub total_coflows: usize,
    /// Virtual admission time (set by the server on release).
    pub admitted_at: Option<f64>,
    /// Virtual completion time.
    pub completed_at: Option<f64>,
    /// Unmet dependency edges remaining.
    unmet: usize,
}

/// What [`Registry::submit`] decided.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// All dependencies already satisfied: admit `spec` (id already
    /// stamped) into the engine now.
    Ready(usize, Box<JobSpec>),
    /// Parked until its dependencies complete.
    Held(usize),
}

/// What [`Registry::cancel`] decided. `engine_cancel` is `Some(id)`
/// when the job was already admitted and the engine must cancel it
/// too; `cascaded` lists held descendants cancelled alongside.
#[derive(Debug)]
pub struct CancelOutcome {
    /// Engine id to cancel, for already-admitted jobs.
    pub engine_cancel: Option<usize>,
    /// Names of held descendants cancelled by cascade.
    pub cascaded: Vec<String>,
}

/// Name → job table with dependency release.
#[derive(Debug, Default)]
pub struct Registry {
    entries: Vec<Entry>,
    by_name: HashMap<String, usize>,
    /// Parent index → child indices (one per dependency edge).
    children: HashMap<usize, Vec<usize>>,
    /// Jobs in each state, by [`GateState::slot`]; kept in step with
    /// every transition so counting costs O(1).
    counts: [usize; 4],
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// All jobs in submission order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Look up a job by name.
    pub fn get(&self, name: &str) -> Option<&Entry> {
        self.by_name.get(name).map(|&i| &self.entries[i])
    }

    /// Jobs currently in `state`.
    pub fn count(&self, state: GateState) -> usize {
        self.counts[state.slot()]
    }

    /// Whether every registered job reached a terminal state
    /// (`Done` or `Cancelled`).
    pub fn all_terminal(&self) -> bool {
        self.count(GateState::Held) + self.count(GateState::Admitted) == 0
    }

    /// Moves job `i` to `state`, keeping the per-state counters.
    fn set_state(&mut self, i: usize, state: GateState) {
        self.counts[self.entries[i].state.slot()] -= 1;
        self.counts[state.slot()] += 1;
        self.entries[i].state = state;
    }

    /// Registers `spec` under `name`, gated on `deps`. Dependencies
    /// must already be registered (no forward references) and not
    /// cancelled. The spec's job id is re-stamped with the dense
    /// registry id — client-side ids are ignored.
    ///
    /// # Errors
    ///
    /// A human-readable message for duplicate names, unknown
    /// dependencies, or dependencies that can never complete.
    pub fn submit(
        &mut self,
        name: &str,
        deps: Vec<String>,
        spec: &JobSpec,
    ) -> Result<SubmitOutcome, String> {
        if self.by_name.contains_key(name) {
            return Err(format!("job name `{name}` already exists"));
        }
        let mut unmet = 0usize;
        let mut parent_idx = Vec::with_capacity(deps.len());
        for dep in &deps {
            let Some(&pi) = self.by_name.get(dep) else {
                return Err(format!("unknown dependency `{dep}`"));
            };
            match self.entries[pi].state {
                GateState::Cancelled => {
                    return Err(format!("dependency `{dep}` was cancelled"));
                }
                GateState::Done => {}
                GateState::Held | GateState::Admitted => unmet += 1,
            }
            parent_idx.push(pi);
        }
        let id = self.entries.len();
        let spec = spec.with_id(id);
        let total_coflows = spec.coflows().len();
        let held = unmet > 0;
        let state = if held {
            GateState::Held
        } else {
            GateState::Admitted
        };
        self.counts[state.slot()] += 1;
        self.entries.push(Entry {
            name: name.to_string(),
            id,
            deps,
            state,
            spec: held.then(|| spec.clone()),
            total_coflows,
            admitted_at: None,
            completed_at: None,
            unmet,
        });
        self.by_name.insert(name.to_string(), id);
        for pi in parent_idx {
            self.children.entry(pi).or_default().push(id);
        }
        Ok(if held {
            SubmitOutcome::Held(id)
        } else {
            SubmitOutcome::Ready(id, Box::new(spec))
        })
    }

    /// Stamps the admission time of a released job.
    pub fn mark_admitted(&mut self, id: usize, vtime: f64) {
        self.entries[id].admitted_at = Some(vtime);
    }

    /// Records completion of job `id` at virtual time `at` and returns
    /// the held children this releases, ready for engine admission
    /// (specs id-stamped), in registration order.
    pub fn complete(&mut self, id: usize, at: f64) -> Vec<(usize, JobSpec)> {
        self.set_state(id, GateState::Done);
        self.entries[id].completed_at = Some(at);
        let mut released = Vec::new();
        if let Some(children) = self.children.get(&id).cloned() {
            for c in children {
                let e = &mut self.entries[c];
                if e.state != GateState::Held {
                    continue;
                }
                e.unmet -= 1;
                if e.unmet == 0 {
                    let spec = e.spec.take().expect("held job retains its spec");
                    self.set_state(c, GateState::Admitted);
                    released.push((c, spec));
                }
            }
        }
        released
    }

    /// Cancels `name` and cascades to every held descendant.
    ///
    /// # Errors
    ///
    /// A message when the name is unknown or already terminal.
    pub fn cancel(&mut self, name: &str) -> Result<CancelOutcome, String> {
        let Some(&i) = self.by_name.get(name) else {
            return Err(format!("unknown job `{name}`"));
        };
        match self.entries[i].state {
            GateState::Done => return Err(format!("job `{name}` already completed")),
            GateState::Cancelled => return Err(format!("job `{name}` already cancelled")),
            GateState::Held | GateState::Admitted => {}
        }
        let engine_cancel = (self.entries[i].state == GateState::Admitted).then_some(i);
        self.set_state(i, GateState::Cancelled);
        self.entries[i].spec = None;
        // Cascade: any held descendant transitively waiting on this job
        // can never run.
        let mut cascaded = Vec::new();
        let mut stack = vec![i];
        while let Some(p) = stack.pop() {
            let children = self.children.get(&p).cloned().unwrap_or_default();
            for c in children {
                if self.entries[c].state == GateState::Held {
                    self.set_state(c, GateState::Cancelled);
                    self.entries[c].spec = None;
                    cascaded.push(self.entries[c].name.clone());
                    stack.push(c);
                }
            }
        }
        Ok(CancelOutcome {
            engine_cancel,
            cascaded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gurita_model::{CoflowSpec, FlowSpec, HostId, JobDag};

    fn spec() -> JobSpec {
        JobSpec::new(
            0,
            0.0,
            vec![CoflowSpec::new(vec![FlowSpec::new(
                HostId(0),
                HostId(1),
                1e6,
            )])],
            JobDag::chain(1).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn chain_releases_in_order() {
        let mut r = Registry::new();
        let a = r.submit("a", vec![], &spec()).unwrap();
        assert!(matches!(a, SubmitOutcome::Ready(0, _)));
        let b = r.submit("b", vec!["a".into()], &spec()).unwrap();
        assert!(matches!(b, SubmitOutcome::Held(1)));
        let c = r.submit("c", vec!["b".into()], &spec()).unwrap();
        assert!(matches!(c, SubmitOutcome::Held(2)));

        let released = r.complete(0, 1.0);
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].0, 1);
        assert_eq!(released[0].1.id().index(), 1, "spec re-stamped");
        assert!(r.complete(1, 2.0).iter().any(|(id, _)| *id == 2));
        assert!(!r.all_terminal());
        r.complete(2, 3.0);
        assert!(r.all_terminal());
    }

    #[test]
    fn fan_in_waits_for_all_parents() {
        let mut r = Registry::new();
        r.submit("a", vec![], &spec()).unwrap();
        r.submit("b", vec![], &spec()).unwrap();
        r.submit("join", vec!["a".into(), "b".into()], &spec())
            .unwrap();
        assert!(r.complete(0, 1.0).is_empty(), "one parent is not enough");
        let released = r.complete(1, 2.0);
        assert_eq!(released.len(), 1);
        assert_eq!(r.get("join").unwrap().state, GateState::Admitted);
    }

    #[test]
    fn dependency_on_done_job_is_immediately_ready() {
        let mut r = Registry::new();
        r.submit("a", vec![], &spec()).unwrap();
        r.complete(0, 1.0);
        let b = r.submit("b", vec!["a".into()], &spec()).unwrap();
        assert!(matches!(b, SubmitOutcome::Ready(1, _)));
    }

    #[test]
    fn rejects_duplicates_unknowns_and_cancelled_deps() {
        let mut r = Registry::new();
        r.submit("a", vec![], &spec()).unwrap();
        assert!(r.submit("a", vec![], &spec()).is_err());
        assert!(r.submit("b", vec!["ghost".into()], &spec()).is_err());
        r.cancel("a").unwrap();
        let err = r.submit("c", vec!["a".into()], &spec()).unwrap_err();
        assert!(err.contains("cancelled"), "{err}");
    }

    #[test]
    fn cancel_cascades_through_held_descendants() {
        let mut r = Registry::new();
        r.submit("root", vec![], &spec()).unwrap();
        r.submit("mid", vec!["root".into()], &spec()).unwrap();
        r.submit("leaf", vec!["mid".into()], &spec()).unwrap();
        r.submit("other", vec![], &spec()).unwrap();
        let out = r.cancel("root").unwrap();
        assert_eq!(
            out.engine_cancel,
            Some(0),
            "admitted root cancels in-engine"
        );
        assert_eq!(out.cascaded, vec!["mid".to_string(), "leaf".to_string()]);
        assert_eq!(r.get("other").unwrap().state, GateState::Admitted);
        assert!(r.cancel("root").is_err(), "double cancel rejected");
        assert_eq!(r.count(GateState::Cancelled), 3);
    }

    /// Every state's counter against a scan of all entries.
    fn assert_counts_match_a_recount(r: &Registry) {
        for state in [
            GateState::Held,
            GateState::Admitted,
            GateState::Done,
            GateState::Cancelled,
        ] {
            let recount = r.entries().iter().filter(|e| e.state == state).count();
            assert_eq!(r.count(state), recount, "{state:?}");
        }
        let terminal = r
            .entries()
            .iter()
            .all(|e| matches!(e.state, GateState::Done | GateState::Cancelled));
        assert_eq!(r.all_terminal(), terminal);
    }

    #[test]
    fn state_counters_equal_a_full_recount() {
        let check = assert_counts_match_a_recount;
        let mut r = Registry::new();
        check(&r);
        r.submit("a", vec![], &spec()).unwrap();
        check(&r);
        r.submit("b", vec!["a".into()], &spec()).unwrap();
        check(&r);
        r.submit("c", vec!["a".into(), "b".into()], &spec())
            .unwrap();
        check(&r);
        r.submit("d", vec!["c".into()], &spec()).unwrap();
        check(&r);
        r.submit("e", vec![], &spec()).unwrap();
        r.submit("f", vec!["e".into()], &spec()).unwrap();
        r.submit("g", vec!["f".into()], &spec()).unwrap();
        check(&r);
        // Releases b; c still waits on b.
        assert_eq!(r.complete(0, 1.0).len(), 1);
        check(&r);
        // Releases c.
        assert_eq!(r.complete(1, 2.0).len(), 1);
        check(&r);
        // Admitted e cancels, cascading to held f and g.
        assert_eq!(r.cancel("e").unwrap().cascaded.len(), 2);
        check(&r);
        assert!(r.cancel("f").is_err(), "already cancelled");
        assert!(r.submit("h", vec!["e".into()], &spec()).is_err());
        check(&r);
        // Releases d, then cancels it in the engine.
        assert_eq!(r.complete(2, 3.0).len(), 1);
        check(&r);
        assert_eq!(r.cancel("d").unwrap().engine_cancel, Some(3));
        check(&r);
        assert_eq!(r.count(GateState::Done), 3);
        assert_eq!(r.count(GateState::Cancelled), 4);
        assert!(r.all_terminal());
    }
}
