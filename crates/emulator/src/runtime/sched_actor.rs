//! The scheduling protocol (DESIGN.md §5): the admission/dispatch
//! actor of a multi-tenant run and the setup [`crate::multi::run_jobs`]
//! hands it.

use super::fault_ctl::{FaultController, Members};
use super::msg::Msg;
use crate::metrics::Metrics;
use crate::multi::{GateDecision, SchedEvent, SchedEventKind, SchedGate};
use lmas_core::Record;
use lmas_sim::{ActorId, Ctx, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Everything the runtime needs to run a merged multi-job graph under a
/// scheduler (constructed by [`crate::multi::run_jobs`]). Holds a boxed
/// gate and an `Rc`, so it is not `Send`: it is an argument of the
/// one-partition build call, never a field of the partition worker.
pub(crate) struct SchedSetup {
    /// Arrival instant per job id (each seeds one [`Msg::JobArrive`]).
    pub arrivals: Vec<SimTime>,
    /// Owning job of each stage in the merged graph.
    pub stage_job: Vec<usize>,
    /// Source `(stage, instance)` pairs per job, in the same stage-major
    /// order the direct path seeds, so a lone job dispatched at its
    /// arrival replays the direct run's source order exactly.
    pub sources: Vec<Vec<(usize, usize)>>,
    /// The pluggable admission/fairness gate.
    pub gate: Box<dyn SchedGate>,
    /// Shared event log the embedding reads back after the run.
    pub log: Rc<RefCell<Vec<SchedEvent>>>,
}

/// Multi-tenant admission/dispatch controller (see [`crate::multi`]).
///
/// One extra actor that replays the arrival schedule through the
/// embedding's [`SchedGate`] and gates each job's source chains: the
/// sources of a gated run are *not* seeded at time zero — the scheduler
/// sends their first [`Msg::SourceNext`] at the dispatch instant, so a
/// queued job holds no emulated resources until admitted. The job's
/// instances join the fault controller's table at that instant too. A job completes with one [`Msg::JobDone`], sent when the
/// last of its sink instances reports end of stream, flushed or fenced
/// (`eos.rs`).
pub(super) struct SchedActor<R: Record> {
    pub(super) gate: Box<dyn SchedGate>,
    /// Source instance actors per job, in dispatch (seeding) order.
    pub(super) sources: Vec<Vec<ActorId>>,
    /// The fault controller this run's instances answer to.
    pub(super) ctl: Rc<FaultController<R>>,
    /// Per job, the instances the controller admits at its dispatch.
    pub(super) waiting: Vec<Members>,
    /// Shared with the [`crate::multi::run_jobs`] caller, which reads
    /// the decisions back into per-job statistics after the run.
    pub(super) log: Rc<RefCell<Vec<SchedEvent>>>,
    pub(super) metrics: Rc<RefCell<Metrics<R>>>,
}

impl<R: Record> SchedActor<R> {
    fn note(&mut self, ctx: &Ctx<'_, Msg<R>>, job: usize, kind: SchedEventKind) {
        let now = ctx.now();
        self.log
            .borrow_mut()
            .push(SchedEvent { at: now, job, kind });
        self.metrics
            .borrow_mut()
            .trace
            .record_with_key(now, ctx.dispatch_key(), || {
                ("sched", format!("job {job} {kind:?}"))
            });
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_, Msg<R>>, job: usize) {
        self.note(ctx, job, SchedEventKind::Dispatch);
        self.ctl.admit(ctx, std::mem::take(&mut self.waiting[job]));
        for i in 0..self.sources[job].len() {
            let actor = self.sources[job][i];
            ctx.send_now(actor, Msg::SourceNext);
        }
    }
}

impl<R: Record> lmas_sim::Actor<Msg<R>> for SchedActor<R> {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg<R>>, msg: Msg<R>) {
        match msg {
            Msg::JobArrive(j) => {
                self.note(ctx, j, SchedEventKind::Arrive);
                match self.gate.on_arrival(j, ctx.now()) {
                    GateDecision::Dispatch => self.dispatch(ctx, j),
                    GateDecision::Queue => self.note(ctx, j, SchedEventKind::Queued),
                    GateDecision::Reject => self.note(ctx, j, SchedEventKind::Rejected),
                }
            }
            Msg::JobDone(j) => {
                self.note(ctx, j, SchedEventKind::Complete);
                for k in self.gate.on_completion(j, ctx.now()) {
                    self.dispatch(ctx, k);
                }
            }
            _ => unreachable!("non-scheduler message delivered to the scheduler"),
        }
    }
}
