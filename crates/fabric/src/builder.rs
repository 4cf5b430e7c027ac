//! Building configurations from dataflow graphs: placement and routing.
//!
//! [`ConfigBuilder`] accepts a small dataflow graph — input ports,
//! constants, operations, output ports — places each operation on a
//! compatible functional unit, and routes every edge through the switch
//! network with breadth-first search over free route registers. Fan-out
//! reuses existing route prefixes of the same signal, exactly as the
//! circuit-switched hardware does (one switch input line can feed several
//! of that switch's output muxes).
//!
//! The builder is the mechanism; *policy* (operation ordering, placement
//! refinement, annealing) lives in the compiler's spatial scheduler, which
//! drives the builder with placement hints.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::config::topo;
use crate::config::{ConfigError, FabricConfig, FabricConfigError, FuConfig, InDir, OperandSrc, OutDir};
use crate::geom::{FabricGeometry, FuId, SwitchId};
use crate::op::{FuKind, FuOp};

/// Handle to a value in the dataflow graph under construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ValueId(usize);

/// Errors produced while building a configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// An input or output port index is out of range for the geometry.
    BadPort {
        /// The offending port.
        port: usize,
        /// Whether it was used as an input.
        input: bool,
    },
    /// Two values were bound to the same input port.
    DuplicateInputPort {
        /// The port bound twice.
        port: usize,
    },
    /// Two values were bound to the same output port.
    DuplicateOutputPort {
        /// The port bound twice.
        port: usize,
    },
    /// An operation received the wrong number of arguments.
    ArityMismatch {
        /// The operation.
        op: FuOp,
        /// Arguments provided.
        got: usize,
    },
    /// No free functional unit can execute the operation.
    Unplaceable {
        /// The operation.
        op: FuOp,
    },
    /// No route could be found for an edge.
    Unroutable {
        /// Description of the edge.
        edge: String,
    },
    /// The finished configuration failed validation (internal error).
    Invalid(ConfigError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::BadPort { port, input } => {
                let dir = if *input { "input" } else { "output" };
                write!(f, "{dir} port {port} does not exist on this geometry")
            }
            BuildError::DuplicateInputPort { port } => {
                write!(f, "input port {port} bound to two values")
            }
            BuildError::DuplicateOutputPort { port } => {
                write!(f, "output port {port} bound to two values")
            }
            BuildError::ArityMismatch { op, got } => {
                write!(f, "{op} takes {} operands, got {got}", op.arity())
            }
            BuildError::Unplaceable { op } => {
                write!(f, "no free functional unit supports {op}")
            }
            BuildError::Unroutable { edge } => write!(f, "no route for edge {edge}"),
            BuildError::Invalid(e) => write!(f, "built configuration is invalid: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ConfigError> for BuildError {
    fn from(e: ConfigError) -> Self {
        BuildError::Invalid(e)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Input { port: usize },
    Const(u64),
    Op { op: FuOp, args: Vec<ValueId> },
}

/// Builds a [`FabricConfig`] from a dataflow graph.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    geom: FabricGeometry,
    kinds: Vec<FuKind>,
    nodes: Vec<Node>,
    outputs: Vec<(ValueId, usize)>,
    hints: HashMap<usize, FuId>,
    vec_in: Vec<(usize, Vec<usize>)>,
    vec_out: Vec<(usize, Vec<usize>)>,
    name: String,
}

impl ConfigBuilder {
    /// Creates a builder for `geom` with the default heterogeneous kinds.
    pub fn new(geom: FabricGeometry) -> Self {
        let kinds = geom.fus().map(|f| FuKind::default_pattern(f.row, f.col)).collect();
        Self::build_with_kinds(geom, kinds)
    }

    /// Creates a builder with explicit per-site hardware kinds (row-major).
    ///
    /// # Errors
    ///
    /// Returns [`FabricConfigError::KindCountMismatch`] if
    /// `kinds.len() != geom.fu_count()`.
    pub fn with_kinds(
        geom: FabricGeometry,
        kinds: Vec<FuKind>,
    ) -> Result<Self, FabricConfigError> {
        if kinds.len() != geom.fu_count() {
            return Err(FabricConfigError::KindCountMismatch {
                expected: geom.fu_count(),
                got: kinds.len(),
            });
        }
        Ok(Self::build_with_kinds(geom, kinds))
    }

    /// Infallible constructor for kinds vectors built from the geometry.
    fn build_with_kinds(geom: FabricGeometry, kinds: Vec<FuKind>) -> Self {
        debug_assert_eq!(kinds.len(), geom.fu_count(), "one kind per FU site");
        ConfigBuilder {
            geom,
            kinds,
            nodes: Vec::new(),
            outputs: Vec::new(),
            hints: HashMap::new(),
            vec_in: Vec::new(),
            vec_out: Vec::new(),
            name: String::from("unnamed"),
        }
    }

    /// Sets the configuration name.
    pub fn set_name(&mut self, name: impl Into<String>) -> &mut Self {
        self.name = name.into();
        self
    }

    /// The geometry this builder targets.
    pub fn geometry(&self) -> FabricGeometry {
        self.geom
    }

    /// Declares a value arriving on input port `port`.
    pub fn input_value(&mut self, port: usize) -> ValueId {
        self.nodes.push(Node::Input { port });
        ValueId(self.nodes.len() - 1)
    }

    /// Declares a configuration-time constant.
    pub fn const_value(&mut self, value: u64) -> ValueId {
        self.nodes.push(Node::Const(value));
        ValueId(self.nodes.len() - 1)
    }

    /// Declares an operation over previously declared values.
    ///
    /// For [`FuOp::Select`], pass `[then_value, else_value, predicate]`.
    ///
    /// # Panics
    ///
    /// Panics if an argument handle comes from a different builder
    /// (out-of-range index).
    pub fn op(&mut self, op: FuOp, args: &[ValueId]) -> ValueId {
        for a in args {
            assert!(a.0 < self.nodes.len(), "argument from a different builder");
        }
        self.nodes.push(Node::Op { op, args: args.to_vec() });
        ValueId(self.nodes.len() - 1)
    }

    /// Binds `value` to output port `port`.
    pub fn output_value(&mut self, value: ValueId, port: usize) -> &mut Self {
        assert!(value.0 < self.nodes.len(), "value from a different builder");
        self.outputs.push((value, port));
        self
    }

    /// Hints that `value` (which must be an operation) should be placed on
    /// `fu`. The spatial scheduler uses hints to drive refinement.
    pub fn hint(&mut self, value: ValueId, fu: FuId) -> &mut Self {
        self.hints.insert(value.0, fu);
        self
    }

    /// Drops every placement hint given so far, so that one graph can be
    /// built again under different hints.
    pub fn clear_hints(&mut self) -> &mut Self {
        self.hints.clear();
        self
    }

    /// Maps vector input port `vp` to scalar input ports.
    pub fn vec_in(&mut self, vp: usize, ports: Vec<usize>) -> &mut Self {
        self.vec_in.push((vp, ports));
        self
    }

    /// Maps vector output port `vp` to scalar output ports.
    pub fn vec_out(&mut self, vp: usize, ports: Vec<usize>) -> &mut Self {
        self.vec_out.push((vp, ports));
        self
    }

    /// Number of operation nodes declared so far.
    pub fn op_count(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, Node::Op { .. })).count()
    }

    /// Places, routes, and validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildError`] if ports clash, arities mismatch, placement
    /// runs out of compatible units, or routing fails.
    pub fn build(&self) -> Result<FabricConfig, BuildError> {
        Placer::new(self)?.run()
    }
}

/// A signal's position during routing: standing at `switch`, having
/// arrived on input line `line`.
type RouteState = (SwitchId, InDir);

/// The mesh directions a route can hop in, in breadth-first expansion order.
const MESH: [OutDir; 4] = [OutDir::North, OutDir::South, OutDir::East, OutDir::West];

/// One change to the placer's routing state, recorded so that a failed
/// placement attempt can be undone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Undo {
    /// Route register `(switch, output)` was claimed.
    Claim(SwitchId, OutDir),
    /// A state was appended to this signal's reached states.
    Reached(usize),
}

/// The graph edge a route serves; only rendered when routing fails.
#[derive(Clone, Copy)]
enum Edge {
    Operand { value: usize, fu: FuId, slot: usize },
    Output { value: usize, port: usize },
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edge::Operand { value, fu, slot } => write!(f, "value {value} -> {fu} operand {slot}"),
            Edge::Output { value, port } => write!(f, "value {value} -> output port {port}"),
        }
    }
}

/// Breadth-first search scratch over every `(switch, arrival line)`
/// state, kept dense (`switch_index * InDir::COUNT + line`) and reused
/// by every search of one build: a state is visited in the current
/// search iff its stamp equals `epoch`.
struct Bfs {
    epoch: u32,
    stamp: Vec<u32>,
    /// How each visited state was reached: the previous state and the
    /// hop taken, or `None` for a seed.
    parent: Vec<Option<(RouteState, OutDir)>>,
    queue: Vec<RouteState>,
    seeds: Vec<RouteState>,
}

impl Bfs {
    fn new(geom: FabricGeometry) -> Self {
        let states = geom.switch_count() * InDir::COUNT;
        Bfs {
            epoch: 0,
            stamp: vec![0; states],
            parent: vec![None; states],
            queue: Vec::new(),
            seeds: Vec::new(),
        }
    }

    fn slot(geom: &FabricGeometry, (sw, line): RouteState) -> usize {
        geom.switch_index(sw) * InDir::COUNT + line.index()
    }

    fn visit(
        &mut self,
        geom: &FabricGeometry,
        state: RouteState,
        from: Option<(RouteState, OutDir)>,
    ) {
        let i = Self::slot(geom, state);
        if self.stamp[i] != self.epoch {
            self.stamp[i] = self.epoch;
            self.parent[i] = from;
            self.queue.push(state);
        }
    }

    /// Searches from `self.seeds`, in order, over free route registers for
    /// the first state standing at `goal_sw`.
    fn search(
        &mut self,
        geom: &FabricGeometry,
        cfg: &FabricConfig,
        goal_sw: SwitchId,
    ) -> Option<RouteState> {
        self.epoch += 1;
        self.queue.clear();
        for i in 0..self.seeds.len() {
            self.visit(geom, self.seeds[i], None);
        }
        let mut head = 0;
        while let Some(&state) = self.queue.get(head) {
            head += 1;
            let (sw, _line) = state;
            if sw == goal_sw {
                return Some(state);
            }
            for d in MESH {
                let Some(next_sw) = topo::neighbor(geom, sw, d) else { continue };
                if cfg.switch(sw).source(d).is_some() {
                    continue;
                }
                self.visit(geom, (next_sw, topo::mirror(d)), Some((state, d)));
            }
        }
        None
    }

    /// How `state` was reached in the last search.
    fn parent(&self, geom: &FabricGeometry, state: RouteState) -> Option<(RouteState, OutDir)> {
        self.parent[Self::slot(geom, state)]
    }
}

struct Placer<'a> {
    b: &'a ConfigBuilder,
    cfg: FabricConfig,
    /// States already reached by each signal's committed routes, indexed
    /// by producer node.
    signal_states: Vec<Vec<RouteState>>,
    /// Placement of op nodes, indexed by node.
    node_fu: Vec<Option<FuId>>,
    /// Occupied FU sites, indexed by `fu_index`.
    fu_used: Vec<bool>,
    /// Changes made since the current placement attempt began.
    undo: Vec<Undo>,
    bfs: Bfs,
}

impl<'a> Placer<'a> {
    fn new(b: &'a ConfigBuilder) -> Result<Self, BuildError> {
        // Port sanity.
        let mut in_ports = HashSet::new();
        for node in &b.nodes {
            if let Node::Input { port } = node {
                if *port >= b.geom.input_ports() {
                    return Err(BuildError::BadPort { port: *port, input: true });
                }
                if !in_ports.insert(*port) {
                    return Err(BuildError::DuplicateInputPort { port: *port });
                }
            }
        }
        let mut out_ports = HashSet::new();
        for (_, port) in &b.outputs {
            if *port >= b.geom.output_ports() {
                return Err(BuildError::BadPort { port: *port, input: false });
            }
            if !out_ports.insert(*port) {
                return Err(BuildError::DuplicateOutputPort { port: *port });
            }
        }
        // Arity sanity.
        for node in &b.nodes {
            if let Node::Op { op, args } = node {
                if args.len() != op.arity() {
                    return Err(BuildError::ArityMismatch { op: *op, got: args.len() });
                }
            }
        }
        Ok(Placer {
            b,
            cfg: {
                let mut c = FabricConfig::empty(b.geom);
                c.set_name(b.name.clone());
                c
            },
            signal_states: vec![Vec::new(); b.nodes.len()],
            node_fu: vec![None; b.nodes.len()],
            fu_used: vec![false; b.geom.fu_count()],
            undo: Vec::new(),
            bfs: Bfs::new(b.geom),
        })
    }

    fn run(mut self) -> Result<FabricConfig, BuildError> {
        let b = self.b;
        for (idx, node) in b.nodes.iter().enumerate() {
            if let Node::Op { op, args } = node {
                self.place_op(idx, *op, args)?;
            }
        }
        for &(value, port) in &b.outputs {
            let goal_sw =
                b.geom.output_port_switch(port).expect("output port validated in Placer::new");
            let edge = Edge::Output { value: value.0, port };
            self.route_signal(value.0, goal_sw, OutDir::ExtOut, edge)?;
        }
        for (vp, ports) in &b.vec_in {
            self.cfg.set_vec_in(*vp, ports.clone());
        }
        for (vp, ports) in &b.vec_out {
            self.cfg.set_vec_out(*vp, ports.clone());
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }

    /// Rough physical location of a node's output, for placement cost.
    fn node_pos(&self, node: usize) -> Option<(isize, isize)> {
        match &self.b.nodes[node] {
            Node::Input { port } => {
                let sw = self.b.geom.input_port_switch(*port)?;
                Some((sw.row as isize, sw.col as isize))
            }
            Node::Const(_) => None,
            Node::Op { .. } => {
                let fu = self.node_fu[node]?;
                let sw = topo::fu_output_switch(fu);
                Some((sw.row as isize, sw.col as isize))
            }
        }
    }

    /// Whether `fu` is free and can execute `op`.
    fn site_fits(&self, fu: FuId, op: FuOp) -> bool {
        let i = self.b.geom.fu_index(fu);
        !self.fu_used[i] && self.b.kinds[i].supports(op)
    }

    fn place_op(&mut self, node: usize, op: FuOp, args: &[ValueId]) -> Result<(), BuildError> {
        // Candidate sites: hinted site first, then free compatible sites by
        // distance to the argument producers.
        let mut candidates: Vec<FuId> = Vec::new();
        if let Some(&hint) = self.b.hints.get(&node) {
            if self.b.geom.fu_valid(hint) {
                candidates.push(hint);
            }
        }
        let arg_positions: Vec<(isize, isize)> =
            args.iter().filter_map(|a| self.node_pos(a.0)).collect();
        let mut free: Vec<FuId> = self.b.geom.fus().filter(|fu| self.site_fits(*fu, op)).collect();
        free.sort_by_key(|fu| {
            let (r, c) = (fu.row as isize, fu.col as isize);
            let dist: isize =
                arg_positions.iter().map(|(ar, ac)| (ar - r).abs() + (ac - c).abs()).sum();
            (dist, fu.row, fu.col)
        });
        candidates.extend(free);
        if candidates.is_empty() {
            return Err(BuildError::Unplaceable { op });
        }

        let orderings = Self::operand_orderings(op, args);
        let mut last_err = BuildError::Unplaceable { op };
        for fu in candidates {
            if !self.site_fits(fu, op) {
                continue;
            }
            for ordering in &orderings {
                match self.try_place_at(node, op, ordering, fu) {
                    Ok(()) => return Ok(()),
                    Err(e) => last_err = e,
                }
            }
        }
        Err(last_err)
    }

    /// Operand orderings to attempt: the given order, plus the swapped
    /// order for commutative binary operations (a routing degree of
    /// freedom real spatial schedulers exploit).
    fn operand_orderings(op: FuOp, args: &[ValueId]) -> Vec<Vec<ValueId>> {
        let commutative = matches!(
            op,
            FuOp::IAdd
                | FuOp::IMul
                | FuOp::IAnd
                | FuOp::IOr
                | FuOp::IXor
                | FuOp::IMax
                | FuOp::IMin
                | FuOp::ICmpEq
                | FuOp::ICmpNe
                | FuOp::FAdd
                | FuOp::FMul
                | FuOp::FMax
                | FuOp::FMin
                | FuOp::PredAnd
                | FuOp::PredOr
        );
        let mut orders = vec![args.to_vec()];
        if commutative && args.len() == 2 && args[0] != args[1] {
            orders.push(vec![args[1], args[0]]);
        }
        orders
    }

    /// Places `node` on `fu`, routing each operand; on failure every
    /// route claimed by the attempt is undone.
    fn try_place_at(
        &mut self,
        node: usize,
        op: FuOp,
        args: &[ValueId],
        fu: FuId,
    ) -> Result<(), BuildError> {
        let mark = self.undo.len();
        let mut operands = [OperandSrc::None; 3];
        for (slot, arg) in args.iter().enumerate() {
            match &self.b.nodes[arg.0] {
                Node::Const(c) => operands[slot] = OperandSrc::Const(*c),
                _ => {
                    let (goal_sw, goal_dir) = topo::fu_operand_switch(fu, slot);
                    let edge = Edge::Operand { value: arg.0, fu, slot };
                    if let Err(e) = self.route_signal(arg.0, goal_sw, goal_dir, edge) {
                        self.rollback(mark);
                        return Err(e);
                    }
                    operands[slot] = OperandSrc::Switch;
                }
            }
        }
        // The placement is committed: its changes are never undone.
        self.undo.truncate(mark);
        self.cfg.set_fu(fu, FuConfig { op, operands });
        self.fu_used[self.b.geom.fu_index(fu)] = true;
        self.node_fu[node] = Some(fu);
        Ok(())
    }

    /// Undoes every change recorded after `mark`, newest first.
    fn rollback(&mut self, mark: usize) {
        for entry in self.undo.drain(mark..).rev() {
            match entry {
                Undo::Claim(sw, d) => self.cfg.switch_mut(sw).clear_source(d),
                Undo::Reached(signal) => {
                    self.signal_states[signal].pop();
                }
            }
        }
    }

    /// Initial route state of a signal that has no committed routes yet.
    fn seed_state(&self, signal: usize) -> Result<RouteState, BuildError> {
        match &self.b.nodes[signal] {
            Node::Input { port } => {
                let sw = self.b.geom.input_port_switch(*port).expect("validated port");
                Ok((sw, InDir::ExtIn))
            }
            Node::Op { .. } => {
                let fu = self.node_fu[signal].ok_or_else(|| BuildError::Unroutable {
                    edge: format!("value {signal} used before placement"),
                })?;
                Ok((topo::fu_output_switch(fu), InDir::FuOut))
            }
            Node::Const(_) => Err(BuildError::Unroutable {
                edge: format!("constant value {signal} cannot be routed"),
            }),
        }
    }

    /// Routes `signal` so that register `(goal_sw, goal_dir)` carries it.
    ///
    /// BFS over `(switch, arrival line)` states; existing routes of the
    /// same signal seed the frontier at distance zero, which makes fan-out
    /// share prefixes.
    fn route_signal(
        &mut self,
        signal: usize,
        goal_sw: SwitchId,
        goal_dir: OutDir,
        edge: Edge,
    ) -> Result<(), BuildError> {
        if self.cfg.switch(goal_sw).source(goal_dir).is_some() {
            return Err(BuildError::Unroutable { edge: format!("{edge}: goal register busy") });
        }
        self.bfs.seeds.clear();
        if self.signal_states[signal].is_empty() {
            let seed = self.seed_state(signal)?;
            self.bfs.seeds.push(seed);
        } else {
            self.bfs.seeds.extend_from_slice(&self.signal_states[signal]);
        }
        // The BFS breaks shortest-path ties by seed order; sorting keeps
        // routing (and every downstream cycle count) independent of the
        // order in which states were reached.
        self.bfs.seeds.sort_unstable();

        let geom = self.b.geom;
        let Some(goal_state) = self.bfs.search(&geom, &self.cfg, goal_sw) else {
            return Err(BuildError::Unroutable { edge: edge.to_string() });
        };

        // Claim the final register, then walk parents claiming hop registers.
        let (_, arrival_line) = goal_state;
        self.claim(goal_sw, goal_dir, arrival_line);
        let mut cursor = goal_state;
        while let Some((prev, taken)) = self.bfs.parent(&geom, cursor) {
            let (prev_sw, prev_line) = prev;
            self.claim(prev_sw, taken, prev_line);
            self.reach(signal, cursor);
            cursor = prev;
        }
        // Record the seed state as reached too (it may have come from
        // seed_state rather than an existing committed route).
        self.reach(signal, cursor);
        Ok(())
    }

    fn claim(&mut self, sw: SwitchId, d: OutDir, source: InDir) {
        self.cfg.switch_mut(sw).set_source(d, source);
        self.undo.push(Undo::Claim(sw, d));
    }

    fn reach(&mut self, signal: usize, state: RouteState) {
        let states = &mut self.signal_states[signal];
        if !states.contains(&state) {
            states.push(state);
            self.undo.push(Undo::Reached(signal));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Fabric;

    fn geom() -> FabricGeometry {
        FabricGeometry::new(4, 4)
    }

    #[test]
    fn build_single_op() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        let cfg = b.build().unwrap();
        assert_eq!(cfg.configured_fus(), 1);
        assert!(cfg.configured_routes() >= 3);
    }

    #[test]
    fn build_respects_name() {
        let mut b = ConfigBuilder::new(geom());
        b.set_name("vecadd");
        let x = b.input_value(0);
        b.output_value(x, 0);
        assert_eq!(b.build().unwrap().name(), "vecadd");
    }

    #[test]
    fn fanout_shares_prefix() {
        // x feeds two ops; the routed configuration must still validate
        // and execute correctly (x duplicated by the switch network).
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        let d = b.op(FuOp::IMul, &[x, x]);
        b.output_value(s, 0);
        b.output_value(d, 1);
        let cfg = b.build().expect("fanout must route");

        let mut f = Fabric::new(geom());
        f.load_config(&cfg).unwrap();
        f.try_send(0, 7);
        f.try_send(1, 3);
        let mut got = (None, None);
        for _ in 0..200 {
            f.tick();
            if got.0.is_none() {
                got.0 = f.try_recv(0);
            }
            if got.1.is_none() {
                got.1 = f.try_recv(1);
            }
            if got.0.is_some() && got.1.is_some() {
                break;
            }
        }
        assert_eq!(got, (Some(10), Some(49)));
    }

    #[test]
    fn chain_of_ops_executes() {
        // ((a+b) * (a-b)) routed through three FUs.
        let mut b = ConfigBuilder::new(geom());
        let a = b.input_value(0);
        let c = b.input_value(1);
        let sum = b.op(FuOp::IAdd, &[a, c]);
        let diff = b.op(FuOp::ISub, &[a, c]);
        let prod = b.op(FuOp::IMul, &[sum, diff]);
        b.output_value(prod, 0);
        let cfg = b.build().unwrap();
        let mut f = Fabric::new(geom());
        f.load_config(&cfg).unwrap();
        f.try_send(0, 9);
        f.try_send(1, 4);
        assert_eq!(f.run_until_output(0, 300), Some((13 * 5) as u64));
    }

    #[test]
    fn duplicate_input_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let _ = b.input_value(0);
        let _ = b.input_value(0);
        let e = b.build().unwrap_err();
        assert!(matches!(e, BuildError::DuplicateInputPort { port: 0 }));
    }

    #[test]
    fn duplicate_output_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        b.output_value(x, 0);
        b.output_value(y, 0);
        assert!(matches!(b.build().unwrap_err(), BuildError::DuplicateOutputPort { port: 0 }));
    }

    #[test]
    fn bad_port_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let _ = b.input_value(999);
        assert!(matches!(b.build().unwrap_err(), BuildError::BadPort { input: true, .. }));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let _bad = b.op(FuOp::IAdd, &[x]);
        assert!(matches!(b.build().unwrap_err(), BuildError::ArityMismatch { .. }));
    }

    #[test]
    fn unplaceable_when_no_capable_unit() {
        // All-IntSimple hardware cannot place a multiply.
        let g = FabricGeometry::new(2, 2);
        let mut b = ConfigBuilder::with_kinds(g, vec![FuKind::IntSimple; 4]).unwrap();
        let x = b.input_value(0);
        let y = b.input_value(1);
        let m = b.op(FuOp::IMul, &[x, y]);
        b.output_value(m, 0);
        assert!(matches!(b.build().unwrap_err(), BuildError::Unplaceable { op: FuOp::IMul }));
    }

    #[test]
    fn placement_exhaustion_detected() {
        // A 1x1 IntSimple fabric can host exactly one op.
        let g = FabricGeometry::new(1, 1);
        let mut b = ConfigBuilder::with_kinds(g, vec![FuKind::IntSimple; 1]).unwrap();
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s1 = b.op(FuOp::IAdd, &[x, y]);
        let s2 = b.op(FuOp::ISub, &[s1, y]);
        b.output_value(s2, 0);
        let e = b.build().unwrap_err();
        assert!(
            matches!(e, BuildError::Unplaceable { .. } | BuildError::Unroutable { .. }),
            "got {e}"
        );
    }

    #[test]
    fn hint_pins_placement() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        let target = FuId { row: 2, col: 2 };
        b.hint(s, target);
        let cfg = b.build().unwrap();
        assert!(cfg.fu(target).is_some(), "hinted site must be used");
        assert_eq!(cfg.fu(target).unwrap().op, FuOp::IAdd);
    }

    #[test]
    fn deep_graph_on_8x8() {
        // A reduction tree of 8 inputs: 7 adders.
        let g = FabricGeometry::new(8, 8);
        let mut b = ConfigBuilder::new(g);
        let mut layer: Vec<ValueId> = (0..8).map(|p| b.input_value(p)).collect();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|pair| b.op(FuOp::IAdd, &[pair[0], pair[1]])).collect();
        }
        b.output_value(layer[0], 0);
        let cfg = b.build().expect("reduction tree must place and route on 8x8");
        let mut f = Fabric::new(g);
        f.load_config(&cfg).unwrap();
        for p in 0..8 {
            assert!(f.try_send(p, (p + 1) as u64));
        }
        assert_eq!(f.run_until_output(0, 500), Some(36));
    }

    #[test]
    fn vector_port_maps_carried_through() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        b.vec_in(0, vec![0, 1]);
        b.vec_out(0, vec![0]);
        let cfg = b.build().unwrap();
        assert_eq!(cfg.vec_in(0), &[0, 1]);
        assert_eq!(cfg.vec_out(0), &[0]);
    }

    #[test]
    fn failed_placement_attempt_restores_routing_state() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        let y = b.input_value(1);
        let s = b.op(FuOp::IAdd, &[x, y]);
        b.output_value(s, 0);
        let mut p = Placer::new(&b).unwrap();
        let fu = FuId { row: 1, col: 1 };
        // Occupy operand 1's register so that operand 0 routes and
        // operand 1 then fails.
        let (sw1, d1) = topo::fu_operand_switch(fu, 1);
        p.cfg.switch_mut(sw1).set_source(d1, InDir::North);
        let (cfg, states, undo) = (p.cfg.clone(), p.signal_states.clone(), p.undo.clone());

        let err = p.try_place_at(s.0, FuOp::IAdd, &[x, y], fu).unwrap_err();
        assert_eq!(
            err.to_string(),
            "no route for edge value 1 -> fu(1,1) operand 1: goal register busy"
        );
        assert_eq!(p.cfg, cfg);
        assert_eq!(p.signal_states, states);
        assert_eq!(p.undo, undo);
        assert_eq!(p.node_fu[s.0], None);

        // Without the obstruction the same attempt routes both operands.
        p.cfg.switch_mut(sw1).clear_source(d1);
        p.try_place_at(s.0, FuOp::IAdd, &[x, y], fu).unwrap();
        assert!(p.cfg.switch(sw1).source(d1).is_some());
        assert!(p.undo.is_empty(), "a committed placement leaves nothing to undo");
    }

    #[test]
    fn unroutable_edge_names_the_value_and_its_goal() {
        let mut b = ConfigBuilder::new(geom());
        let x = b.input_value(0);
        b.output_value(x, 0);
        let mut p = Placer::new(&b).unwrap();
        // Input port 0 enters at sw(0,0); block its two mesh outputs.
        let entry = SwitchId { row: 0, col: 0 };
        p.cfg.switch_mut(entry).set_source(OutDir::South, InDir::ExtIn);
        p.cfg.switch_mut(entry).set_source(OutDir::East, InDir::ExtIn);
        let err = p.run().unwrap_err();
        assert_eq!(err, BuildError::Unroutable { edge: "value 0 -> output port 0".to_owned() });
        assert_eq!(err.to_string(), "no route for edge value 0 -> output port 0");
    }

    #[test]
    fn fp_pipeline_executes() {
        let g = geom();
        let mut b = ConfigBuilder::new(g);
        let x = b.input_value(0);
        let y = b.input_value(1);
        let prod = b.op(FuOp::FMul, &[x, y]);
        let k = b.const_value(1.0f64.to_bits());
        let shifted = b.op(FuOp::FAdd, &[prod, k]);
        b.output_value(shifted, 0);
        let cfg = b.build().unwrap();
        let mut f = Fabric::new(g);
        f.load_config(&cfg).unwrap();
        f.try_send(0, 2.5f64.to_bits());
        f.try_send(1, 4.0f64.to_bits());
        let out = f.run_until_output(0, 300).expect("fp chain produces output");
        assert_eq!(f64::from_bits(out), 11.0);
    }
}
