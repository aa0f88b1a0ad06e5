//! The netlist data model and its editing operations.

use smt_base::units::{Area, Current};
use smt_cells::cell::{CellId, PinDir, VthClass};
use smt_cells::library::Library;
use std::collections::HashMap;
use std::fmt;

/// Index of an instance within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a net within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a top-level port within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u32);

impl InstId {
    /// Index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl NetId {
    /// Index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl PortId {
    /// Index as usize.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}
impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

/// Direction of a top-level port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input.
    Input,
    /// Primary output.
    Output,
}

/// A `(instance, pin-index)` reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PinRef {
    /// Owning instance.
    pub inst: InstId,
    /// Pin index within the instance's cell type.
    pub pin: usize,
}

/// Who drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Driven by an instance output pin.
    Inst(PinRef),
    /// Driven by a primary input port.
    Port(PortId),
}

/// A cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Instance name, unique within the netlist.
    pub name: String,
    /// Cell type in the library.
    pub cell: CellId,
    /// Net bound to each cell pin (parallel to the cell's pin list).
    pub conns: Vec<Option<NetId>>,
    /// Cached pin directions (copied from the cell type at creation so
    /// editing does not need the library).
    pub pin_dirs: Vec<PinDir>,
    /// True when the instance has been removed (tombstone; ids are stable).
    pub dead: bool,
}

impl Instance {
    /// Net on a given pin.
    pub fn net_on(&self, pin: usize) -> Option<NetId> {
        self.conns.get(pin).copied().flatten()
    }
}

/// A net.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Net {
    /// Net name, unique within the netlist.
    pub name: String,
    /// The driver, if connected.
    pub driver: Option<NetDriver>,
    /// Instance input pins loading the net.
    pub loads: Vec<PinRef>,
    /// Output ports fed by the net.
    pub port_loads: Vec<PortId>,
}

impl Net {
    /// Position of `pr` in this net's load list — the per-sink ordinal
    /// timing analysis uses to index per-sink Elmore tables.
    ///
    /// Returns `None` when the pin is **not** a load of this net: a
    /// dangling [`PinRef`], which means the instance-side `conns` entry
    /// and the net-side load list disagree (a broken edit invariant).
    /// Callers must treat `None` as a hard error — picking an arbitrary
    /// sink's delay instead would silently misprice the path.
    pub fn load_ordinal(&self, pr: PinRef) -> Option<usize> {
        self.loads.iter().position(|l| *l == pr)
    }
}

/// A top-level port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// Net bound to the port.
    pub net: NetId,
    /// True for the clock input.
    pub is_clock: bool,
}

/// Errors returned by netlist editing operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NetlistError {
    /// A named pin does not exist on the instance's cell type.
    NoSuchPin {
        /// Instance name.
        inst: String,
        /// Requested pin name.
        pin: String,
    },
    /// Two drivers were connected to one net.
    MultipleDrivers {
        /// Net name.
        net: String,
    },
    /// A name collision on instance/net/port creation.
    DuplicateName {
        /// The colliding name.
        name: String,
    },
    /// Replacement cell's pins are incompatible with the old cell.
    IncompatibleReplacement {
        /// Instance name.
        inst: String,
        /// Explanation.
        why: String,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::NoSuchPin { inst, pin } => {
                write!(f, "instance `{inst}` has no pin `{pin}`")
            }
            NetlistError::MultipleDrivers { net } => {
                write!(f, "net `{net}` would have multiple drivers")
            }
            NetlistError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            NetlistError::IncompatibleReplacement { inst, why } => {
                write!(f, "cannot replace cell of `{inst}`: {why}")
            }
        }
    }
}

impl std::error::Error for NetlistError {}

/// A gate-level netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    /// Design name.
    pub name: String,
    insts: Vec<Instance>,
    nets: Vec<Net>,
    ports: Vec<Port>,
    inst_names: HashMap<String, InstId>,
    net_names: HashMap<String, NetId>,
    live_insts: usize,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new(name: &str) -> Self {
        Netlist {
            name: name.to_owned(),
            ..Default::default()
        }
    }

    // ---- construction -------------------------------------------------

    /// Adds a net. Panics on duplicate names only in debug builds; use
    /// [`Netlist::add_net_checked`] for fallible creation.
    pub fn add_net(&mut self, name: &str) -> NetId {
        self.add_net_checked(name).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Adds a net, failing on duplicate names.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] when the name is taken.
    pub fn add_net_checked(&mut self, name: &str) -> Result<NetId, NetlistError> {
        if self.net_names.contains_key(name) {
            return Err(NetlistError::DuplicateName {
                name: name.to_owned(),
            });
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.to_owned(),
            ..Default::default()
        });
        self.net_names.insert(name.to_owned(), id);
        Ok(id)
    }

    /// Adds a primary input port (and its net, named after the port).
    pub fn add_input(&mut self, name: &str) -> NetId {
        self.add_port(name, PortDir::Input, false)
    }

    /// Adds the clock input port.
    pub fn add_clock(&mut self, name: &str) -> NetId {
        self.add_port(name, PortDir::Input, true)
    }

    /// Adds a primary output port (and its net).
    pub fn add_output(&mut self, name: &str) -> NetId {
        self.add_port(name, PortDir::Output, false)
    }

    fn add_port(&mut self, name: &str, dir: PortDir, is_clock: bool) -> NetId {
        let net = self.add_net(name);
        let pid = PortId(self.ports.len() as u32);
        self.ports.push(Port {
            name: name.to_owned(),
            dir,
            net,
            is_clock,
        });
        match dir {
            PortDir::Input => self.nets[net.index()].driver = Some(NetDriver::Port(pid)),
            PortDir::Output => self.nets[net.index()].port_loads.push(pid),
        }
        net
    }

    /// Binds an existing net to a new output port (used when exposing an
    /// internal net, e.g. for debug taps).
    pub fn expose_output(&mut self, name: &str, net: NetId) -> PortId {
        let pid = PortId(self.ports.len() as u32);
        self.ports.push(Port {
            name: name.to_owned(),
            dir: PortDir::Output,
            net,
            is_clock: false,
        });
        self.nets[net.index()].port_loads.push(pid);
        pid
    }

    /// Re-binds an existing output port to a different net (the Verilog
    /// reader uses this for `assign <port> = <net>;` aliases).
    ///
    /// Returns `false` when no output port has that name.
    pub fn rebind_output_port(&mut self, name: &str, net: NetId) -> bool {
        let Some(pid) = self
            .ports
            .iter()
            .position(|p| p.name == name && p.dir == PortDir::Output)
            .map(|i| PortId(i as u32))
        else {
            return false;
        };
        let old = self.ports[pid.index()].net;
        self.nets[old.index()].port_loads.retain(|p| *p != pid);
        self.ports[pid.index()].net = net;
        self.nets[net.index()].port_loads.push(pid);
        true
    }

    /// Adds an instance of a library cell with all pins unconnected.
    pub fn add_instance(&mut self, name: &str, cell: CellId, lib: &Library) -> InstId {
        assert!(
            !self.inst_names.contains_key(name),
            "duplicate instance name `{name}`"
        );
        let spec = lib.cell(cell);
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Instance {
            name: name.to_owned(),
            cell,
            conns: vec![None; spec.pins.len()],
            pin_dirs: spec.pins.iter().map(|p| p.dir).collect(),
            dead: false,
        });
        self.inst_names.insert(name.to_owned(), id);
        self.live_insts += 1;
        id
    }

    /// Connects an instance pin (by index) to a net.
    ///
    /// # Errors
    ///
    /// [`NetlistError::MultipleDrivers`] when connecting a second output to
    /// a driven net.
    pub fn connect(&mut self, inst: InstId, pin: usize, net: NetId) -> Result<(), NetlistError> {
        self.disconnect(inst, pin);
        let dir = self.insts[inst.index()].pin_dirs[pin];
        let pr = PinRef { inst, pin };
        match dir {
            PinDir::Output => {
                if self.nets[net.index()].driver.is_some() {
                    return Err(NetlistError::MultipleDrivers {
                        net: self.nets[net.index()].name.clone(),
                    });
                }
                self.nets[net.index()].driver = Some(NetDriver::Inst(pr));
            }
            PinDir::Input => self.nets[net.index()].loads.push(pr),
        }
        self.insts[inst.index()].conns[pin] = Some(net);
        Ok(())
    }

    /// Connects an instance pin by name.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchPin`] for unknown pin names, and the errors of
    /// [`Netlist::connect`].
    pub fn connect_by_name(
        &mut self,
        inst: InstId,
        pin_name: &str,
        net: NetId,
        lib: &Library,
    ) -> Result<(), NetlistError> {
        let cell = lib.cell(self.insts[inst.index()].cell);
        let pin = cell
            .pin_index(pin_name)
            .ok_or_else(|| NetlistError::NoSuchPin {
                inst: self.insts[inst.index()].name.clone(),
                pin: pin_name.to_owned(),
            })?;
        self.connect(inst, pin, net)
    }

    /// Disconnects a pin; a no-op when already unconnected.
    pub fn disconnect(&mut self, inst: InstId, pin: usize) {
        let Some(net) = self.insts[inst.index()].conns[pin] else {
            return;
        };
        let pr = PinRef { inst, pin };
        let n = &mut self.nets[net.index()];
        match self.insts[inst.index()].pin_dirs[pin] {
            PinDir::Output => {
                if n.driver == Some(NetDriver::Inst(pr)) {
                    n.driver = None;
                }
            }
            PinDir::Input => n.loads.retain(|l| *l != pr),
        }
        self.insts[inst.index()].conns[pin] = None;
    }

    /// Removes an instance, disconnecting all pins. The id becomes a
    /// tombstone; iteration skips it.
    pub fn remove_instance(&mut self, inst: InstId) {
        if self.insts[inst.index()].dead {
            return;
        }
        for pin in 0..self.insts[inst.index()].conns.len() {
            self.disconnect(inst, pin);
        }
        let name = self.insts[inst.index()].name.clone();
        self.inst_names.remove(&name);
        self.insts[inst.index()].dead = true;
        self.live_insts -= 1;
    }

    // ---- the paper's editing primitives --------------------------------

    /// Replaces the cell type of an instance, rebinding connections by pin
    /// *name*. Pins present only on the new cell (e.g. `VGND` when swapping
    /// `_L` → `_MV`) start unconnected; pins present only on the old cell
    /// are disconnected first.
    ///
    /// This is the primitive behind every Vth re-assignment in Fig. 4.
    ///
    /// Every connected input pin is removed from its net's load list and
    /// re-appended, in pin order: the instance's input pins move to the
    /// end of their load lists, and the sinks behind them move up one
    /// ordinal. That order sets the float order of static-load sums and
    /// which per-sink Elmore delay each sink reads until the next
    /// extraction.
    ///
    /// Between cells with the same pins ([`Library::same_pins`], e.g. a
    /// Vth swap) every pin keeps its index, and the swap skips the
    /// pin-name search and allocates nothing; the netlist ends up exactly
    /// as the general rebind leaves it.
    ///
    /// The replacement is transactional: *every* rebind (pin-name
    /// compatibility and second-driver checks included) is validated
    /// before the first mutation, so on any error the netlist is left
    /// exactly as it was — no half-rebound instance, no dropped loads.
    ///
    /// # Errors
    ///
    /// [`NetlistError::IncompatibleReplacement`] when a *connected* old pin
    /// has no same-named pin on the new cell and is not a `MTE`/`VGND`
    /// special pin; [`NetlistError::MultipleDrivers`] when a rebind would
    /// land an output pin on a net that keeps another driver.
    pub fn replace_cell(
        &mut self,
        inst: InstId,
        new_cell: CellId,
        lib: &Library,
    ) -> Result<(), NetlistError> {
        let me = &self.insts[inst.index()];
        let new_spec = lib.cell(new_cell);
        if lib.same_pins(me.cell, new_cell)
            && me.conns.len() == new_spec.pins.len()
            && me
                .pin_dirs
                .iter()
                .zip(&new_spec.pins)
                .all(|(d, p)| *d == p.dir)
        {
            self.swap_same_pins(inst, new_cell)
        } else {
            self.rebind_by_name(inst, new_cell, lib)
        }
    }

    /// The general form of [`Netlist::replace_cell`]: resolves every
    /// connected pin by name on the new cell, validates, then
    /// disconnects every connected pin and reconnects each binding, in
    /// old-pin order.
    fn rebind_by_name(
        &mut self,
        inst: InstId,
        new_cell: CellId,
        lib: &Library,
    ) -> Result<(), NetlistError> {
        let old_cell = lib.cell(self.insts[inst.index()].cell);
        let new_spec = lib.cell(new_cell);
        // Pass 1 (read-only): resolve every connected old pin to its
        // new-cell pin, in old-pin order.
        let conns = self.insts[inst.index()].conns.clone();
        let mut bindings: Vec<(usize, NetId)> = Vec::new(); // (new pin, net)
        for (i, conn) in conns.iter().enumerate() {
            let Some(net) = conn else { continue };
            let pname = &old_cell.pins[i].name;
            match new_spec.pin_index(pname) {
                Some(pin) => bindings.push((pin, *net)),
                // `MTE`/`VGND` special pins are silently dropped when the
                // new variant lacks them (e.g. `_MV` → `_L`).
                None if pname == "MTE" || pname == "VGND" => {}
                None => {
                    return Err(NetlistError::IncompatibleReplacement {
                        inst: self.insts[inst.index()].name.clone(),
                        why: format!("connected pin `{pname}` missing on `{}`", new_spec.name),
                    });
                }
            }
        }
        // Pass 2 (read-only): second-driver checks. A rebind onto an
        // *output* pin of the new cell must not collide with a driver
        // that survives the swap (any driver other than this instance,
        // which is about to be disconnected) nor with another output
        // rebind of this same replacement.
        let mut driven: Vec<NetId> = Vec::new();
        for &(pin, net) in &bindings {
            if new_spec.pins[pin].dir != PinDir::Output {
                continue;
            }
            let foreign_driver = match self.nets[net.index()].driver {
                Some(NetDriver::Inst(pr)) => pr.inst != inst,
                Some(NetDriver::Port(_)) => true,
                None => false,
            };
            if foreign_driver || driven.contains(&net) {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[net.index()].name.clone(),
                });
            }
            driven.push(net);
        }
        // Commit: every step below is infallible.
        for (i, conn) in conns.iter().enumerate() {
            if conn.is_some() {
                self.disconnect(inst, i);
            }
        }
        let me = &mut self.insts[inst.index()];
        me.cell = new_cell;
        me.conns = vec![None; new_spec.pins.len()];
        me.pin_dirs = new_spec.pins.iter().map(|p| p.dir).collect();
        for (pin, net) in bindings {
            self.connect(inst, pin, net)
                .expect("pre-validated rebind cannot fail");
        }
        Ok(())
    }

    /// [`Netlist::replace_cell`] onto a cell with the same pins, whose
    /// instance pin directions already match: each pin keeps its index
    /// and net. The same second-driver check runs first, and the commit
    /// leaves each net exactly as the general rebind does (driver pins
    /// re-bound, each connected input pin moved to the end of its load
    /// list, in pin order), without allocating.
    fn swap_same_pins(&mut self, inst: InstId, new_cell: CellId) -> Result<(), NetlistError> {
        let me = &self.insts[inst.index()];
        for (pin, conn) in me.conns.iter().enumerate() {
            let (Some(net), PinDir::Output) = (*conn, me.pin_dirs[pin]) else {
                continue;
            };
            let foreign_driver = match self.nets[net.index()].driver {
                Some(NetDriver::Inst(pr)) => pr.inst != inst,
                Some(NetDriver::Port(_)) => true,
                None => false,
            };
            let driven = me.conns[..pin]
                .iter()
                .zip(&me.pin_dirs)
                .any(|(c, d)| *d == PinDir::Output && *c == Some(net));
            if foreign_driver || driven {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[net.index()].name.clone(),
                });
            }
        }
        // Commit: every step below is infallible.
        let me = &mut self.insts[inst.index()];
        me.cell = new_cell;
        for (pin, (conn, dir)) in me.conns.iter().zip(&me.pin_dirs).enumerate() {
            let Some(net) = *conn else { continue };
            let pr = PinRef { inst, pin };
            let n = &mut self.nets[net.index()];
            match dir {
                PinDir::Output => n.driver = Some(NetDriver::Inst(pr)),
                PinDir::Input => {
                    n.loads.retain(|l| *l != pr);
                    n.loads.push(pr);
                }
            }
        }
        Ok(())
    }

    /// Inserts a buffer instance into `net`, moving the given subset of
    /// loads behind it. Returns `(buffer instance, new net)`.
    ///
    /// Used for MTE-net buffering and hold fixing.
    ///
    /// # Panics
    ///
    /// Panics if `buf_cell` has no `A`/`Z` pins.
    pub fn insert_buffer(
        &mut self,
        net: NetId,
        loads: &[PinRef],
        buf_cell: CellId,
        name_hint: &str,
        lib: &Library,
    ) -> (InstId, NetId) {
        let new_net_name = self.fresh_net_name(name_hint);
        let new_net = self.add_net(&new_net_name);
        let buf_name = self.fresh_inst_name(name_hint);
        let buf = self.add_instance(&buf_name, buf_cell, lib);
        self.connect_by_name(buf, "A", net, lib)
            .expect("buffer has pin A");
        self.connect_by_name(buf, "Z", new_net, lib)
            .expect("buffer has pin Z");
        for pr in loads {
            self.disconnect(pr.inst, pr.pin);
            self.connect(pr.inst, pr.pin, new_net)
                .expect("moving input loads cannot create a second driver");
        }
        (buf, new_net)
    }

    /// Produces a net name not currently used, derived from a hint.
    pub fn fresh_net_name(&self, hint: &str) -> String {
        let mut i = self.nets.len();
        loop {
            let cand = format!("{hint}_n{i}");
            if !self.net_names.contains_key(&cand) {
                return cand;
            }
            i += 1;
        }
    }

    /// Produces an instance name not currently used, derived from a hint.
    pub fn fresh_inst_name(&self, hint: &str) -> String {
        let mut i = self.insts.len();
        loop {
            let cand = format!("{hint}_u{i}");
            if !self.inst_names.contains_key(&cand) {
                return cand;
            }
            i += 1;
        }
    }

    // ---- accessors ------------------------------------------------------

    /// Instance by id (tombstones included; check [`Instance::dead`]).
    pub fn inst(&self, id: InstId) -> &Instance {
        &self.insts[id.index()]
    }

    /// Net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Port by id.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// Looks up an instance by name.
    pub fn find_inst(&self, name: &str) -> Option<InstId> {
        self.inst_names.get(name).copied()
    }

    /// Looks up a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Iterates over live instances.
    pub fn instances(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.insts
            .iter()
            .enumerate()
            .filter(|(_, i)| !i.dead)
            .map(|(i, inst)| (InstId(i as u32), inst))
    }

    /// Iterates over all nets.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Iterates over ports.
    pub fn ports(&self) -> impl Iterator<Item = (PortId, &Port)> {
        self.ports
            .iter()
            .enumerate()
            .map(|(i, p)| (PortId(i as u32), p))
    }

    /// Number of live instances.
    pub fn num_instances(&self) -> usize {
        self.live_insts
    }

    /// Total number of instance slots, including tombstones — the bound for
    /// dense per-instance side tables.
    pub fn inst_capacity(&self) -> usize {
        self.insts.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// The clock net, if a clock port exists.
    pub fn clock_net(&self) -> Option<NetId> {
        self.ports
            .iter()
            .find(|p| p.is_clock && p.dir == PortDir::Input)
            .map(|p| p.net)
    }

    /// Stable structural content fingerprint: FNV-1a over the design
    /// name, every live instance (slot, name, cell id, pin bindings),
    /// every net (name, driver, load order, port loads) and every port.
    /// Two netlists fingerprint equal iff they are the same structure
    /// under the same ids — tombstone layout included, since dense
    /// side tables (placement!) are slot-addressed. Stable across
    /// process runs (no hash-map iteration, no pointer values).
    pub fn fingerprint(&self) -> u64 {
        let mut h = smt_base::fingerprint::Fnv64::new();
        h.write_str(&self.name);
        h.write_usize(self.insts.len());
        for (id, inst) in self.instances() {
            h.write_usize(id.index());
            h.write_str(&inst.name);
            h.write_usize(inst.cell.index());
            h.write_usize(inst.conns.len());
            for conn in &inst.conns {
                match conn {
                    Some(n) => {
                        h.write_bool(true);
                        h.write_usize(n.index());
                    }
                    None => h.write_bool(false),
                }
            }
        }
        h.write_usize(self.nets.len());
        for (_, net) in self.nets() {
            h.write_str(&net.name);
            match net.driver {
                Some(NetDriver::Inst(pr)) => {
                    h.write_u8(1);
                    h.write_usize(pr.inst.index());
                    h.write_usize(pr.pin);
                }
                Some(NetDriver::Port(p)) => {
                    h.write_u8(2);
                    h.write_usize(p.index());
                }
                None => h.write_u8(0),
            }
            h.write_usize(net.loads.len());
            for pr in &net.loads {
                h.write_usize(pr.inst.index());
                h.write_usize(pr.pin);
            }
            h.write_usize(net.port_loads.len());
            for p in &net.port_loads {
                h.write_usize(p.index());
            }
        }
        h.write_usize(self.ports.len());
        for (_, p) in self.ports() {
            h.write_str(&p.name);
            h.write_bool(p.dir == PortDir::Output);
            h.write_usize(p.net.index());
            h.write_bool(p.is_clock);
        }
        h.finish()
    }

    // ---- bulk topology export / maintenance -----------------------------

    /// Exports net → sink connectivity in compressed-sparse-row form:
    /// all nets' load lists concatenated (per-net order preserved, so an
    /// offset into a net's row *is* the sink ordinal of
    /// [`Net::load_ordinal`]). Bulk consumers walk these rows in one
    /// cache-friendly pass instead of per-net pointer chasing: the
    /// static analyzer ([`crate::check::analyze`]) cross-validates them
    /// against the instance-side `conns` tables, and the `smt_sta`
    /// timing kernel's sink cache derives exactly these rows, fused
    /// with its per-net load sums.
    pub fn load_csr(&self) -> LoadCsr {
        let total: usize = self.nets.iter().map(|n| n.loads.len()).sum();
        let mut sinks = Vec::with_capacity(total);
        let mut net_start = Vec::with_capacity(self.nets.len() + 1);
        net_start.push(0u32);
        for net in &self.nets {
            sinks.extend_from_slice(&net.loads);
            net_start.push(sinks.len() as u32);
        }
        LoadCsr { sinks, net_start }
    }

    /// Squeezes [`Netlist::remove_instance`] tombstones out of the
    /// instance table, renumbering the surviving instances densely (in
    /// their existing relative order) and rewriting every net-side
    /// [`PinRef`] and the name index to match.
    ///
    /// Nets, ports and per-net load *order* are untouched, so any
    /// net-indexed state (parasitics, arrival tables) stays valid and
    /// timing results are unchanged — only per-**instance** side tables
    /// (placement, derating) must be remapped through the returned
    /// [`CompactMap`]. Long ECO sessions call this so dense
    /// per-instance tables stop paying for dead slots forever.
    pub fn compact(&mut self) -> CompactMap {
        let mut old_to_new = vec![None; self.insts.len()];
        let mut kept = Vec::with_capacity(self.live_insts);
        for (i, inst) in std::mem::take(&mut self.insts).into_iter().enumerate() {
            if inst.dead {
                continue;
            }
            old_to_new[i] = Some(InstId(kept.len() as u32));
            kept.push(inst);
        }
        self.insts = kept;
        for net in &mut self.nets {
            if let Some(NetDriver::Inst(pr)) = &mut net.driver {
                pr.inst = old_to_new[pr.inst.index()].expect("net driver is a live instance");
            }
            for pr in &mut net.loads {
                pr.inst = old_to_new[pr.inst.index()].expect("net load is a live instance");
            }
        }
        for id in self.inst_names.values_mut() {
            *id = old_to_new[id.index()].expect("named instances are live");
        }
        CompactMap { old_to_new }
    }

    // ---- summary statistics --------------------------------------------

    /// Total cell area.
    pub fn total_area(&self, lib: &Library) -> Area {
        self.instances().map(|(_, i)| lib.cell(i.cell).area).sum()
    }

    /// Count of live instances in each Vth class.
    pub fn vth_census(&self, lib: &Library) -> VthCensus {
        let mut c = VthCensus::default();
        for (_, inst) in self.instances() {
            let cell = lib.cell(inst.cell);
            match cell.vth {
                VthClass::Low => c.low += 1,
                VthClass::High => c.high += 1,
                VthClass::MtEmbedded => c.mt_embedded += 1,
                VthClass::MtVgnd => c.mt_vgnd += 1,
            }
            match cell.role {
                smt_cells::cell::CellRole::Switch => c.switches += 1,
                smt_cells::cell::CellRole::Holder => c.holders += 1,
                smt_cells::cell::CellRole::Sequential => c.ffs += 1,
                _ => {}
            }
        }
        c
    }

    /// Sum of per-cell standby leakage figures. (The power crate refines
    /// this with state-dependent and cluster-level analysis; this quick sum
    /// is used for coarse tracking inside the flow.)
    pub fn standby_leak_quick(&self, lib: &Library) -> Current {
        self.instances()
            .map(|(_, i)| lib.cell(i.cell).standby_leak)
            .sum()
    }
}

/// Compressed-sparse-row export of net → sink connectivity; see
/// [`Netlist::load_csr`].
#[derive(Debug, Clone, Default)]
pub struct LoadCsr {
    /// Every net's load list, concatenated in net-id order with per-net
    /// load order preserved.
    pub sinks: Vec<PinRef>,
    /// Per-net offsets into `sinks`; `net_start.len() == num_nets + 1`,
    /// net `i`'s sinks are `sinks[net_start[i]..net_start[i + 1]]`.
    pub net_start: Vec<u32>,
}

impl LoadCsr {
    /// The sink row of one net (loads in ordinal order).
    pub fn net(&self, id: NetId) -> &[PinRef] {
        &self.sinks[self.net_start[id.index()] as usize..self.net_start[id.index() + 1] as usize]
    }
}

/// Old-id → new-id instance mapping produced by [`Netlist::compact`].
#[derive(Debug, Clone)]
pub struct CompactMap {
    old_to_new: Vec<Option<InstId>>,
}

impl CompactMap {
    /// The new id of a pre-compaction instance (`None` for tombstones,
    /// which no longer exist).
    pub fn new_id(&self, old: InstId) -> Option<InstId> {
        self.old_to_new.get(old.index()).copied().flatten()
    }

    /// Number of pre-compaction instance slots (the bound old side
    /// tables were sized to).
    pub fn old_capacity(&self) -> usize {
        self.old_to_new.len()
    }

    /// Gathers a dense per-instance side table (placement rows, derating
    /// factors, ...) from pre-compaction indexing into post-compaction
    /// indexing, dropping tombstone entries.
    pub fn remap_table<T: Clone>(&self, old: &[T]) -> Vec<T> {
        let live = self.old_to_new.iter().flatten().count();
        let mut out = Vec::with_capacity(live);
        for (i, slot) in self.old_to_new.iter().enumerate() {
            if slot.is_some() {
                out.push(old[i].clone());
            }
        }
        out
    }
}

/// Instance counts per Vth class and per special role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VthCensus {
    /// Low-Vth cells.
    pub low: usize,
    /// High-Vth cells.
    pub high: usize,
    /// Conventional MT-cells (embedded switch).
    pub mt_embedded: usize,
    /// Improved MT-cells (VGND port).
    pub mt_vgnd: usize,
    /// Footer switch cells.
    pub switches: usize,
    /// Output holders.
    pub holders: usize,
    /// Flip-flops.
    pub ffs: usize,
}

impl VthCensus {
    /// Total counted cells.
    pub fn total(&self) -> usize {
        self.low + self.high + self.mt_embedded + self.mt_vgnd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib() -> Library {
        Library::industrial_130nm()
    }

    fn tiny(lib: &Library) -> (Netlist, InstId, InstId) {
        // a --[ND2 u1]-- n1 --[INV u2]-- z ;  b is the other ND2 input
        let mut n = Netlist::new("tiny");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let z = n.add_output("z");
        let n1 = n.add_net("n1");
        let u1 = n.add_instance("u1", lib.find_id("ND2_X1_L").unwrap(), lib);
        let u2 = n.add_instance("u2", lib.find_id("INV_X1_L").unwrap(), lib);
        n.connect_by_name(u1, "A", a, lib).unwrap();
        n.connect_by_name(u1, "B", b, lib).unwrap();
        n.connect_by_name(u1, "Z", n1, lib).unwrap();
        n.connect_by_name(u2, "A", n1, lib).unwrap();
        n.connect_by_name(u2, "Z", z, lib).unwrap();
        (n, u1, u2)
    }

    #[test]
    fn connectivity_bookkeeping() {
        let lib = lib();
        let (n, u1, u2) = tiny(&lib);
        let n1 = n.find_net("n1").unwrap();
        let net = n.net(n1);
        assert_eq!(
            net.driver,
            Some(NetDriver::Inst(PinRef { inst: u1, pin: 2 }))
        );
        assert_eq!(net.loads, vec![PinRef { inst: u2, pin: 0 }]);
        assert_eq!(n.num_instances(), 2);
        // Input port drives its net.
        let a = n.find_net("a").unwrap();
        assert!(matches!(n.net(a).driver, Some(NetDriver::Port(_))));
        // Output port loads its net.
        let z = n.find_net("z").unwrap();
        assert_eq!(n.net(z).port_loads.len(), 1);
    }

    #[test]
    fn fingerprint_is_stable_and_tracks_structure() {
        let lib = lib();
        let (n, u1, _) = tiny(&lib);
        let (same, _, _) = tiny(&lib);
        assert_eq!(n.fingerprint(), same.fingerprint(), "same build, same fp");
        // A cell-variant swap changes the fingerprint…
        let (mut swapped, _, _) = tiny(&lib);
        swapped
            .replace_cell(u1, lib.find_id("ND2_X1_H").unwrap(), &lib)
            .unwrap();
        assert_ne!(n.fingerprint(), swapped.fingerprint());
        // …and so does a topology edit.
        let (mut edited, _, _) = tiny(&lib);
        edited.add_net("extra");
        assert_ne!(n.fingerprint(), edited.fingerprint());
        // Tombstone layout matters (dense side tables are slot-addressed):
        // removing and compacting are distinct states.
        let (mut dead, _, u2) = tiny(&lib);
        dead.remove_instance(u2);
        let fp_tombstoned = dead.fingerprint();
        assert_ne!(n.fingerprint(), fp_tombstoned);
        dead.compact();
        assert_ne!(fp_tombstoned, dead.fingerprint());
    }

    #[test]
    fn multiple_drivers_rejected() {
        let lib = lib();
        let (mut n, _, u2) = tiny(&lib);
        let a = n.find_net("a").unwrap();
        // u2.Z is already driving z; reconnecting to the port-driven `a`
        // must fail.
        let err = n.connect_by_name(u2, "Z", a, &lib).unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn replace_cell_to_mt_variant_keeps_connections() {
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        let mv = lib.find_id("ND2_X1_MV").unwrap();
        n.replace_cell(u1, mv, &lib).unwrap();
        let inst = n.inst(u1);
        assert_eq!(inst.cell, mv);
        // A, B, Z still bound; VGND new and unconnected.
        let cell = lib.cell(mv);
        assert!(inst.net_on(cell.pin_index("A").unwrap()).is_some());
        assert!(inst.net_on(cell.pin_index("Z").unwrap()).is_some());
        assert!(inst.net_on(cell.pin_index("VGND").unwrap()).is_none());
        // Net driver updated to the same logical pin.
        let n1 = n.find_net("n1").unwrap();
        assert!(matches!(n.net(n1).driver, Some(NetDriver::Inst(pr)) if pr.inst == u1));
    }

    #[test]
    fn replace_cell_back_drops_vgnd_binding() {
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        let mv = lib.find_id("ND2_X1_MV").unwrap();
        n.replace_cell(u1, mv, &lib).unwrap();
        let vg = n.add_net("vgnd0");
        let pin = lib.cell(mv).pin_index("VGND").unwrap();
        n.connect(u1, pin, vg).unwrap();
        // Swapping back to `_L` silently drops the VGND binding.
        let l = lib.find_id("ND2_X1_L").unwrap();
        n.replace_cell(u1, l, &lib).unwrap();
        assert!(n.net(vg).loads.is_empty());
    }

    #[test]
    fn remove_instance_clears_connectivity() {
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        n.remove_instance(u1);
        assert_eq!(n.num_instances(), 1);
        let n1 = n.find_net("n1").unwrap();
        assert!(n.net(n1).driver.is_none());
        assert!(n.find_inst("u1").is_none());
        // Idempotent.
        n.remove_instance(u1);
        assert_eq!(n.num_instances(), 1);
    }

    #[test]
    fn insert_buffer_splits_loads() {
        let lib = lib();
        let (mut n, _, u2) = tiny(&lib);
        let n1 = n.find_net("n1").unwrap();
        let loads = n.net(n1).loads.clone();
        let buf_cell = lib.buffer(2, VthClass::High).unwrap();
        let (buf, new_net) = n.insert_buffer(n1, &loads, buf_cell, "mte_buf", &lib);
        // Old net now feeds only the buffer; u2 moved to the new net.
        assert_eq!(n.net(n1).loads, vec![PinRef { inst: buf, pin: 0 }]);
        assert_eq!(n.net(new_net).loads, vec![PinRef { inst: u2, pin: 0 }]);
        assert!(matches!(n.net(new_net).driver, Some(NetDriver::Inst(pr)) if pr.inst == buf));
    }

    #[test]
    fn census_and_area() {
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        let c0 = n.vth_census(&lib);
        assert_eq!(c0.low, 2);
        assert_eq!(c0.total(), 2);
        n.replace_cell(u1, lib.find_id("ND2_X1_MV").unwrap(), &lib)
            .unwrap();
        let c1 = n.vth_census(&lib);
        assert_eq!(c1.low, 1);
        assert_eq!(c1.mt_vgnd, 1);
        assert!(n.total_area(&lib) > c0.total() as f64 * Area::ZERO);
        // Area grew: MV variant is bigger than L.
        let area_now = n.total_area(&lib);
        n.replace_cell(u1, lib.find_id("ND2_X1_L").unwrap(), &lib)
            .unwrap();
        assert!(n.total_area(&lib) < area_now);
    }

    #[test]
    #[should_panic(expected = "duplicate instance name")]
    fn duplicate_instance_name_panics() {
        let lib = lib();
        let mut n = Netlist::new("x");
        let id = lib.find_id("INV_X1_L").unwrap();
        n.add_instance("u", id, &lib);
        n.add_instance("u", id, &lib);
    }

    #[test]
    fn duplicate_net_is_error() {
        let mut n = Netlist::new("x");
        n.add_net("w");
        assert!(matches!(
            n.add_net_checked("w"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn fresh_names_avoid_collisions() {
        let lib = lib();
        let (n, _, _) = tiny(&lib);
        let nn = n.fresh_net_name("n");
        assert!(n.find_net(&nn).is_none());
        let ni = n.fresh_inst_name("u");
        assert!(n.find_inst(&ni).is_none());
    }

    #[test]
    fn failed_replacement_leaves_netlist_untouched() {
        // ND2 (A, B, Z all bound) -> INV (no pin B): the incompatibility
        // is discovered at pin B, *after* pin A in declaration order. The
        // old implementation had already disconnected A by then.
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        let before = n.clone();
        let inv = lib.find_id("INV_X1_L").unwrap();
        let err = n.replace_cell(u1, inv, &lib).unwrap_err();
        assert!(matches!(err, NetlistError::IncompatibleReplacement { .. }));
        // Nothing moved: same cell, same conns, same net-side state.
        assert_eq!(n.inst(u1), before.inst(u1));
        for (id, net) in before.nets() {
            assert_eq!(
                n.net(id),
                net,
                "net `{}` changed on a failed swap",
                net.name
            );
        }
    }

    #[test]
    fn same_pin_swap_matches_the_general_rebind() {
        // u1 reads `a` on both inputs, next to two other sinks of `a`:
        // the swap must move both of u1's pins to the end of the load
        // list, in pin order, exactly as the general rebind does.
        let lib = lib();
        let (mut n, u1, _) = tiny(&lib);
        let a = n.find_net("a").unwrap();
        let extra = n.add_net("extra");
        let u3 = n.add_instance("u3", lib.find_id("ND2_X1_L").unwrap(), &lib);
        n.connect_by_name(u3, "A", a, &lib).unwrap();
        n.connect_by_name(u3, "Z", extra, &lib).unwrap();
        n.connect_by_name(u1, "B", a, &lib).unwrap();
        n.connect_by_name(u3, "B", a, &lib).unwrap();
        let high = lib.find_id("ND2_X1_H").unwrap();
        assert!(lib.same_pins(n.inst(u1).cell, high));
        let mut general = n.clone();
        n.replace_cell(u1, high, &lib).unwrap();
        general.rebind_by_name(u1, high, &lib).unwrap();
        assert_eq!(n.fingerprint(), general.fingerprint());
        assert_eq!(
            n.net(a).loads,
            vec![
                PinRef { inst: u3, pin: 0 },
                PinRef { inst: u3, pin: 1 },
                PinRef { inst: u1, pin: 0 },
                PinRef { inst: u1, pin: 1 },
            ]
        );

        // A foreign driver on the output net (a broken netlist) is the
        // same error on both paths, and neither path touches anything.
        let n1 = n.find_net("n1").unwrap();
        n.nets[n1.index()].driver = Some(NetDriver::Port(PortId(0)));
        let before = n.clone();
        let low = lib.find_id("ND2_X1_L").unwrap();
        let fast = n.replace_cell(u1, low, &lib).unwrap_err();
        let mut general = before.clone();
        let slow = general.rebind_by_name(u1, low, &lib).unwrap_err();
        assert_eq!(fast, slow);
        assert_eq!(n.fingerprint(), before.fingerprint());
        assert_eq!(general.fingerprint(), before.fingerprint());
    }

    #[test]
    fn replacement_onto_driven_net_is_rejected_atomically() {
        // A replacement cell whose same-named pin flips direction
        // (input `A` -> output `A`) would drive the port-driven net `a`:
        // the second-driver check must fire *before* any mutation. The
        // old implementation failed mid-rebind, leaving the instance on
        // the new cell type with its bindings dropped.
        use smt_cells::library::LibraryConfig;
        let base = lib();
        let mut cells = base.cells().to_vec();
        let mut flip = base.find("INV_X1_L").unwrap().clone();
        flip.name = "INV_FLIP".to_owned();
        let ia = flip.pin_index("A").unwrap();
        let iz = flip.pin_index("Z").unwrap();
        flip.pins[ia].name = "Z".to_owned();
        flip.pins[iz].name = "A".to_owned();
        cells.push(flip);
        let lib2 = Library::from_cells(base.tech.clone(), LibraryConfig::default(), cells);

        let mut n = Netlist::new("flip");
        let a = n.add_input("a");
        let z = n.add_net("z");
        let u = n.add_instance("u", lib2.find_id("INV_X1_L").unwrap(), &lib2);
        n.connect_by_name(u, "A", a, &lib2).unwrap();
        n.connect_by_name(u, "Z", z, &lib2).unwrap();
        let before = n.clone();
        let err = n
            .replace_cell(u, lib2.find_id("INV_FLIP").unwrap(), &lib2)
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
        assert_eq!(n.inst(u), before.inst(u));
        for (id, net) in before.nets() {
            assert_eq!(
                n.net(id),
                net,
                "net `{}` changed on a failed swap",
                net.name
            );
        }
    }

    #[test]
    fn load_ordinal_reports_dangling_pinrefs() {
        let lib = lib();
        let (n, u1, u2) = tiny(&lib);
        let n1 = n.find_net("n1").unwrap();
        // The real load is found at its position...
        assert_eq!(n.net(n1).load_ordinal(PinRef { inst: u2, pin: 0 }), Some(0));
        // ...a PinRef not on the net is a dangling reference, never 0.
        assert_eq!(n.net(n1).load_ordinal(PinRef { inst: u1, pin: 0 }), None);
        // Same on a hand-built net with no loads at all.
        let empty = Net::default();
        assert_eq!(empty.load_ordinal(PinRef { inst: u1, pin: 3 }), None);
    }

    #[test]
    fn load_csr_matches_per_net_loads() {
        let lib = lib();
        let (n, _, _) = tiny(&lib);
        let csr = n.load_csr();
        assert_eq!(csr.net_start.len(), n.num_nets() + 1);
        for (id, net) in n.nets() {
            assert_eq!(csr.net(id), &net.loads[..], "net `{}`", net.name);
        }
        assert_eq!(
            csr.sinks.len(),
            n.nets().map(|(_, net)| net.loads.len()).sum::<usize>()
        );
    }

    #[test]
    fn compact_squeezes_tombstones_and_remaps() {
        let lib = lib();
        let (mut n, u1, u2) = tiny(&lib);
        n.remove_instance(u1);
        assert_eq!(n.inst_capacity(), 2);
        let map = n.compact();
        assert_eq!(n.inst_capacity(), 1);
        assert_eq!(n.num_instances(), 1);
        assert_eq!(map.new_id(u1), None);
        let new_u2 = map.new_id(u2).unwrap();
        assert_eq!(n.inst(new_u2).name, "u2");
        assert_eq!(n.find_inst("u2"), Some(new_u2));
        // Net-side references were rewritten to the new id.
        let n1 = n.find_net("n1").unwrap();
        assert_eq!(
            n.net(n1).loads,
            vec![PinRef {
                inst: new_u2,
                pin: 0
            }]
        );
        assert!(n.net(n1).driver.is_none());
        // Side-table gather: a 2-slot table shrinks to the live slot.
        assert_eq!(map.old_capacity(), 2);
        assert_eq!(map.remap_table(&["dead", "live"]), vec!["live"]);
        // Editing continues to work post-compaction.
        let u3 = n.add_instance("u3", lib.find_id("INV_X1_L").unwrap(), &lib);
        n.connect_by_name(u3, "A", n1, &lib).unwrap();
        assert_eq!(u3.index(), 1);
        assert_eq!(n.net(n1).loads.len(), 2);
    }

    #[test]
    fn clock_net_detection() {
        let lib = lib();
        let mut n = Netlist::new("x");
        assert!(n.clock_net().is_none());
        let ck = n.add_clock("clk");
        assert_eq!(n.clock_net(), Some(ck));
        let _ = lib;
    }
}
