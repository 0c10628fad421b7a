//! The actor network and its data-driven scheduler.

use std::collections::VecDeque;

use desim::{Cycle, OpCounts};
use epiphany::chip::CoreId;
use epiphany::Chip;

/// Index of an actor in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ActorId(usize);

/// Index of a channel in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ChannelId(usize);

/// Behaviour of one process. `T` is the network's token type.
pub trait Actor<T> {
    /// Consume one token from every input port. Charge compute through
    /// [`FireCtx::charge`] and emit tokens with [`FireCtx::send`]
    /// (output ports are numbered in [`Network::connect`] order).
    fn fire(&mut self, inputs: Vec<T>, ctx: &mut FireCtx<'_, T>);
}

/// Firing context handed to an actor.
pub struct FireCtx<'a, T> {
    chip: &'a mut Chip,
    core: CoreId,
    outputs: &'a [ChannelId],
    emitted: Vec<(ChannelId, T, u64)>,
}

impl<T> FireCtx<'_, T> {
    /// Charge a compute region to the actor's core.
    pub fn charge(&mut self, ops: &OpCounts) {
        self.chip.compute(self.core, ops);
    }

    /// Emit `token` (`bytes` long on the wire) on output port `port`.
    ///
    /// # Panics
    /// If `port` exceeds the actor's output arity.
    pub fn send(&mut self, port: usize, token: T, bytes: u64) {
        assert!(
            port < self.outputs.len(),
            "actor has {} output ports, tried {port}",
            self.outputs.len()
        );
        self.emitted.push((self.outputs[port], token, bytes));
    }
}

/// How long an actor idled for its inputs, and how many of them had
/// already arrived when its core got to them, since the last
/// [`Network::take_stall`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stall {
    /// Cycles the core waited for the latest input of a firing, summed.
    pub wait_cycles: u64,
    /// Most inputs of one firing already delivered when the core
    /// reached it (the backlog it found).
    pub ready_peak: u64,
}

struct ActorSlot<T> {
    name: String,
    core: CoreId,
    behaviour: Box<dyn Actor<T>>,
    inputs: Vec<ChannelId>,
    outputs: Vec<ChannelId>,
    /// Synthetic channel carrying externally fed tokens (sources only).
    source: Option<ChannelId>,
    stall: Stall,
}

struct ChannelState<T> {
    to: ActorId,
    /// Tokens with their data-ready times at the consumer.
    queue: VecDeque<(Cycle, T)>,
}

/// A placed process network over a chip model.
pub struct Network<T> {
    chip: Chip,
    actors: Vec<ActorSlot<T>>,
    channels: Vec<ChannelState<T>>,
}

impl<T> Network<T> {
    /// Empty network over `chip`.
    pub fn new(chip: Chip) -> Network<T> {
        Network {
            chip,
            actors: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// Place an actor on `core`.
    pub fn add_actor(&mut self, name: &str, core: CoreId, behaviour: Box<dyn Actor<T>>) -> ActorId {
        assert!(core < self.chip.cores(), "core {core} outside the chip");
        self.actors.push(ActorSlot {
            name: name.to_string(),
            core,
            behaviour,
            inputs: Vec::new(),
            outputs: Vec::new(),
            source: None,
            stall: Stall::default(),
        });
        ActorId(self.actors.len() - 1)
    }

    fn new_channel(&mut self, to: ActorId) -> ChannelId {
        self.channels.push(ChannelState {
            to,
            queue: VecDeque::new(),
        });
        ChannelId(self.channels.len() - 1)
    }

    /// Connect `from` to `to` with a new channel; it becomes the next
    /// output port of `from` and the next input port of `to`.
    pub fn connect(&mut self, from: ActorId, to: ActorId) {
        let id = self.new_channel(to);
        self.actors[from.0].outputs.push(id);
        self.actors[to.0].inputs.push(id);
    }

    /// Inject a host-fed token directly into `actor` (which must have
    /// no input channels — a source). The host writes commands ahead
    /// of the core, so a source fires without a flag wait.
    pub fn feed(&mut self, actor: ActorId, token: T) {
        let slot = &self.actors[actor.0];
        assert!(
            slot.source.is_some() || slot.inputs.is_empty(),
            "feed() is for source actors; '{}' has channel inputs",
            slot.name
        );
        // Sources get a synthetic self-channel on first feed.
        let chan = if let Some(c) = slot.source {
            c
        } else {
            let id = self.new_channel(actor);
            // Input-only: never an output port of the actor.
            self.actors[actor.0].inputs.push(id);
            self.actors[actor.0].source = Some(id);
            id
        };
        self.channels[chan.0].queue.push_back((Cycle::ZERO, token));
    }

    /// Move every actor placed on core `from` onto core `to` (remapping
    /// around a halted core); queued tokens stay where they are.
    pub fn remap(&mut self, from: CoreId, to: CoreId) {
        assert!(to < self.chip.cores(), "core {to} outside the chip");
        for a in self.actors.iter_mut().filter(|a| a.core == from) {
            a.core = to;
        }
    }

    /// Return `actor`'s input stall since the last call and reset it.
    pub fn take_stall(&mut self, actor: ActorId) -> Stall {
        std::mem::take(&mut self.actors[actor.0].stall)
    }

    /// Whether `actor` can fire now.
    fn fireable(&self, idx: usize) -> bool {
        let a = &self.actors[idx];
        !a.inputs.is_empty()
            && a.inputs
                .iter()
                .all(|c| !self.channels[c.0].queue.is_empty())
    }

    /// Run until no actor can fire.
    pub fn run(&mut self) {
        while let Some(idx) = (0..self.actors.len()).find(|&i| self.fireable(i)) {
            self.fire_one(idx);
        }
    }

    fn fire_one(&mut self, idx: usize) {
        let core = self.actors[idx].core;
        let reached = self.chip.now(core);
        // Pop one token per input port; the actor blocks until the
        // latest one has arrived (the implicit flag wait).
        let input_chans: Vec<ChannelId> = self.actors[idx].inputs.clone();
        let mut tokens = Vec::with_capacity(input_chans.len());
        let mut latest = Cycle::ZERO;
        let mut arrived = 0u64;
        for c in &input_chans {
            let (ready, tok) = self.channels[c.0]
                .queue
                .pop_front()
                .expect("fireable checked non-empty");
            latest = latest.max(ready);
            arrived += u64::from(ready <= reached);
            tokens.push(tok);
        }
        if self.actors[idx].source.is_none() {
            let stall = &mut self.actors[idx].stall;
            stall.wait_cycles += latest.saturating_sub(reached).0;
            stall.ready_peak = stall.ready_peak.max(arrived);
            self.chip.wait_flag(core, latest);
        }

        let outputs = self.actors[idx].outputs.clone();
        let mut ctx = FireCtx {
            chip: &mut self.chip,
            core,
            outputs: &outputs,
            emitted: Vec::new(),
        };
        // Temporarily take the behaviour out to satisfy the borrow
        // checker (the actor may not touch the network, only the ctx).
        let mut behaviour =
            std::mem::replace(&mut self.actors[idx].behaviour, Box::new(InertActor));
        behaviour.fire(tokens, &mut ctx);
        let emitted = ctx.emitted;
        self.actors[idx].behaviour = behaviour;

        // Every token rides a flag-signalled posted write; under fault
        // injection a lost flag is re-sent by the producer's watchdog.
        for (chan, token, bytes) in emitted {
            let dst_core = self.actors[self.channels[chan.0].to.0].core;
            let ready = self.chip.send_reliable(core, dst_core, bytes);
            self.channels[chan.0].queue.push_back((ready, token));
        }
    }

    /// The underlying chip (time/energy reports).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Mutable chip access (e.g. initial DMA loads before running).
    pub fn chip_mut(&mut self) -> &mut Chip {
        &mut self.chip
    }
}

/// Placeholder behaviour swapped in while an actor is firing.
struct InertActor;
impl<T> Actor<T> for InertActor {
    fn fire(&mut self, _inputs: Vec<T>, _ctx: &mut FireCtx<'_, T>) {
        unreachable!("inert placeholder must never fire");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiphany::EpiphanyParams;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn chip() -> Chip {
        Chip::e16g3(EpiphanyParams::default())
    }

    struct AddOne;
    impl Actor<u64> for AddOne {
        fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
            ctx.charge(&OpCounts {
                ialu: 1,
                ..OpCounts::default()
            });
            ctx.send(0, inputs[0] + 1, 8);
        }
    }

    struct CollectProbe(Rc<RefCell<Vec<u64>>>);
    impl Actor<u64> for CollectProbe {
        fn fire(&mut self, inputs: Vec<u64>, _ctx: &mut FireCtx<'_, u64>) {
            self.0.borrow_mut().push(inputs.into_iter().sum());
        }
    }

    #[test]
    fn results_are_correct_and_ordered() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let a = net.add_actor("inc", 0, Box::new(AddOne));
        let sink = net.add_actor("sink", 1, Box::new(CollectProbe(results.clone())));
        net.connect(a, sink);
        for v in [1u64, 2, 3, 4] {
            net.feed(a, v);
        }
        net.run();
        assert_eq!(*results.borrow(), vec![2, 3, 4, 5]);
    }

    #[test]
    fn join_waits_for_both_producers() {
        // Two producers on different cores feed one consumer; the
        // consumer fires exactly min(tokens_left, tokens_right) times.
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let left = net.add_actor("left", 0, Box::new(AddOne));
        let right = net.add_actor("right", 5, Box::new(AddOne));
        let join = net.add_actor("join", 10, Box::new(CollectProbe(results.clone())));
        net.connect(left, join);
        net.connect(right, join);
        net.feed(left, 100);
        net.feed(left, 200);
        net.feed(right, 1);
        net.run();
        // Only one pair available: (101) + (2).
        assert_eq!(*results.borrow(), vec![103]);
    }

    #[test]
    fn communication_advances_simulated_time() {
        struct Heavy;
        impl Actor<u64> for Heavy {
            fn fire(&mut self, inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
                ctx.charge(&OpCounts {
                    fmas: 10_000,
                    ..OpCounts::default()
                });
                ctx.send(0, inputs[0], 4096);
            }
        }
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let p = net.add_actor("heavy", 0, Box::new(Heavy));
        let s = net.add_actor("sink", 15, Box::new(CollectProbe(results.clone())));
        net.connect(p, s);
        net.feed(p, 7);
        net.run();
        // Compute (10k FMA) + 4 KB across six hops must both show.
        let elapsed = net.chip().elapsed();
        assert!(elapsed.raw() > 10_000, "elapsed {elapsed}");
        assert_eq!(*results.borrow(), vec![7]);
    }

    #[test]
    fn sources_fire_without_a_flag_wait_and_consumers_record_their_stall() {
        let results = Rc::new(RefCell::new(Vec::new()));
        let mut net = Network::new(chip());
        let a = net.add_actor("inc", 0, Box::new(AddOne));
        let sink = net.add_actor("sink", 15, Box::new(CollectProbe(results.clone())));
        net.connect(a, sink);
        net.feed(a, 1);
        net.run();
        // Only the sink polls a flag, and it idles for the message.
        assert_eq!(net.chip().counters(0).get("flag_wait"), 0);
        assert_eq!(net.chip().counters(15).get("flag_wait"), 1);
        assert_eq!(net.take_stall(a), Stall::default());
        let stall = net.take_stall(sink);
        assert!(stall.wait_cycles > 0);
        assert_eq!(
            stall.ready_peak, 0,
            "nothing had arrived when the sink got there"
        );
        assert_eq!(net.take_stall(sink), Stall::default(), "taking resets");
    }

    #[test]
    fn remapped_actors_run_on_their_new_core() {
        let mut net = Network::new(chip());
        let a = net.add_actor("inc", 0, Box::new(AddOne));
        let sink = net.add_actor("sink", 1, Box::new(CollectProbe(Rc::default())));
        net.connect(a, sink);
        net.remap(0, 7);
        net.feed(a, 1);
        net.run();
        assert_eq!(net.chip().busy(0), Cycle::ZERO);
        assert!(net.chip().busy(7) > Cycle::ZERO);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut net = Network::new(chip());
            let a = net.add_actor("a", 0, Box::new(AddOne));
            let b = net.add_actor("b", 3, Box::new(AddOne));
            let s = net.add_actor("s", 12, Box::new(CollectProbe(Rc::default())));
            net.connect(a, b);
            net.connect(b, s);
            for v in 0..20u64 {
                net.feed(a, v);
            }
            net.run();
            net.chip().elapsed()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "output ports")]
    fn sending_on_a_missing_port_panics() {
        struct Bad;
        impl Actor<u64> for Bad {
            fn fire(&mut self, _inputs: Vec<u64>, ctx: &mut FireCtx<'_, u64>) {
                ctx.send(0, 0, 8); // no outputs connected
            }
        }
        let mut net = Network::new(chip());
        let a = net.add_actor("bad", 0, Box::new(Bad));
        net.feed(a, 1);
        net.run();
    }

    #[test]
    #[should_panic(expected = "source actors")]
    fn feeding_a_non_source_panics() {
        let mut net = Network::new(chip());
        let a = net.add_actor("a", 0, Box::new(AddOne));
        let b = net.add_actor("b", 1, Box::new(AddOne));
        net.connect(a, b);
        net.feed(b, 1);
    }
}
