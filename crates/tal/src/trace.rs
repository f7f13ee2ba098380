//! Control-flow tracing.
//!
//! The machines emit an [`Event`] at every control transfer, which is how
//! the repository regenerates the paper's control-flow diagrams (Fig 4
//! and Fig 12). Step counts ([`CountTracer`]) come from the same events
//! on the Fig 8 oracle; the fast machine counts its own steps instead,
//! so counting never forces its traced loop.

use std::fmt;

use funtal_syntax::{FTy, Label, Reg};

/// A control-flow event emitted by the T machine or the FT machine.
///
/// The first five variants are pure-T (Fig 4); the rest are emitted only
/// by the multi-language machine (Fig 12).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// An intra-component `jmp` landed on a block.
    Jmp {
        /// Target label.
        to: Label,
    },
    /// A `call` transferred to a component.
    Call {
        /// Target label.
        to: Label,
    },
    /// A `ret` jumped back through a continuation.
    Ret {
        /// Continuation label.
        to: Label,
        /// Register carrying the result.
        val: Reg,
    },
    /// A taken `bnz`.
    BnzTaken {
        /// Target label.
        to: Label,
    },
    /// The machine halted with a value in a register.
    Halt {
        /// The result register.
        reg: Reg,
    },
    /// One T instruction executed (useful for step counting).
    Instr,
    /// Evaluation crossed into a `τFT` boundary (T component begins).
    BoundaryEnter {
        /// The boundary's F type.
        ty: FTy,
    },
    /// A boundary's component halted and its value was translated to F.
    BoundaryExit {
        /// The boundary's F type.
        ty: FTy,
    },
    /// An `import` began evaluating its F expression.
    ImportEnter,
    /// An `import` finished and translated the value into a register.
    ImportExit {
        /// Destination register.
        rd: Reg,
    },
    /// An F β-reduction (application of a lambda).
    FBeta,
    /// One F reduction step that is not a β (δ, if0, proj, unfold).
    FStep,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Jmp { to } => write!(f, "jmp -> {to}"),
            Event::Call { to } => write!(f, "call -> {to}"),
            Event::Ret { to, val } => write!(f, "ret -> {to} ({val})"),
            Event::BnzTaken { to } => write!(f, "bnz -> {to}"),
            Event::Halt { reg } => write!(f, "halt ({reg})"),
            Event::Instr => write!(f, "instr"),
            Event::BoundaryEnter { ty } => write!(f, "FT[{ty}] enter"),
            Event::BoundaryExit { ty } => write!(f, "FT[{ty}] exit"),
            Event::ImportEnter => write!(f, "import enter"),
            Event::ImportExit { rd } => write!(f, "import exit -> {rd}"),
            Event::FBeta => write!(f, "beta"),
            Event::FStep => write!(f, "fstep"),
        }
    }
}

/// Consumes control-flow events.
pub trait Tracer {
    /// Called once per event.
    fn event(&mut self, e: &Event);

    /// False when the tracer discards everything, letting hot loops
    /// skip event construction entirely. Defaults to true.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives the step counts a machine kept itself because this
    /// tracer is not [`enabled`](Tracer::enabled) (zeros when it is,
    /// since the events carried them); called once on every `Ok` exit
    /// of the fast machine. Ignored by default.
    fn add_counts(&mut self, _counts: &CountTracer) {}
}

/// Ignores all events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn event(&mut self, _e: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Records all events.
#[derive(Debug, Default, Clone)]
pub struct VecTracer {
    /// The recorded events, in order.
    pub events: Vec<Event>,
}

impl VecTracer {
    /// A new, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Only the control-transfer events (no `Instr`/`FStep` noise) —
    /// the shape compared against Fig 4 / Fig 12.
    pub fn transfers(&self) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| !matches!(e, Event::Instr | Event::FStep | Event::FBeta))
            .collect()
    }
}

impl Tracer for VecTracer {
    fn event(&mut self, e: &Event) {
        self.events.push(e.clone());
    }
}

/// Counts machine steps by class: the `"steps"` block of every run.
///
/// Machines that emit every event (the Fig 8 oracle, the T machine)
/// feed it through [`Tracer::event`]. It is not
/// [`enabled`](Tracer::enabled), so the fast machine runs its untraced
/// loop, counts the same classes itself, and hands over the totals
/// through [`Tracer::add_counts`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CountTracer {
    /// T instructions executed.
    pub instrs: u64,
    /// Control transfers (jmp/call/ret/bnz).
    pub transfers: u64,
    /// F reduction steps (β and otherwise).
    pub f_steps: u64,
    /// Boundary crossings (enter + exit + import enter/exit).
    pub crossings: u64,
}

impl CountTracer {
    /// A new, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total work: instructions plus F steps.
    pub fn total_steps(&self) -> u64 {
        self.instrs + self.f_steps
    }
}

impl Tracer for CountTracer {
    fn event(&mut self, e: &Event) {
        match e {
            Event::Instr => self.instrs += 1,
            Event::Jmp { .. } | Event::Call { .. } | Event::Ret { .. } | Event::BnzTaken { .. } => {
                self.transfers += 1
            }
            Event::FBeta | Event::FStep => self.f_steps += 1,
            Event::BoundaryEnter { .. }
            | Event::BoundaryExit { .. }
            | Event::ImportEnter
            | Event::ImportExit { .. } => self.crossings += 1,
            Event::Halt { .. } => {}
        }
    }

    fn enabled(&self) -> bool {
        false
    }

    fn add_counts(&mut self, c: &CountTracer) {
        self.instrs += c.instrs;
        self.transfers += c.transfers;
        self.f_steps += c.f_steps;
        self.crossings += c.crossings;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `CountTracer` must stay disabled: an enabled one would put every
    /// engine job back on the fast machine's traced loop.
    #[test]
    fn count_tracer_is_not_a_tracing_tracer() {
        let mut c = CountTracer::new();
        assert!(!c.enabled());
        // Machines that emit every event still count through it...
        c.event(&Event::Instr);
        c.event(&Event::BnzTaken {
            to: Label::new("l"),
        });
        c.event(&Event::FBeta);
        c.event(&Event::ImportEnter);
        c.event(&Event::Halt { reg: Reg::R1 });
        // ...and the fast machine's own totals add on top.
        let own = CountTracer {
            instrs: 4,
            transfers: 3,
            f_steps: 2,
            crossings: 1,
        };
        c.add_counts(&own);
        let want = CountTracer {
            instrs: 5,
            transfers: 4,
            f_steps: 3,
            crossings: 2,
        };
        assert_eq!(c, want);
        // Every other tracer ignores handed-over counts.
        let mut v = VecTracer::new();
        v.add_counts(&own);
        assert!(v.events.is_empty());
    }
}
