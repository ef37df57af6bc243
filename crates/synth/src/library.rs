//! A NanGate-45nm-flavoured standard-cell library.
//!
//! Cell areas follow the NanGate 45nm Open Cell Library's site grid;
//! timing uses a load-dependent linear model
//! `delay = intrinsic + R_drive · C_load` calibrated so that an
//! inverter FO4 delay lands near 50 ps — the regime the paper's
//! OpenROAD + OpenSTA flow operates in. Every function is offered at
//! three drive strengths (X1/X2/X4) so the sizing pass can trade area
//! and power for delay under a timing constraint, reproducing how
//! synthesis under different target delays yields different netlists
//! for the same RTL (paper Section V-A).

use rlmul_rtl::GateKind;

/// Drive strength of a cell variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Drive {
    /// Unit drive.
    X1,
    /// Double drive.
    X2,
    /// Quadruple drive.
    X4,
}

impl Drive {
    /// All strengths, weakest first.
    pub const ALL: [Drive; 3] = [Drive::X1, Drive::X2, Drive::X4];

    /// Numeric strength multiplier.
    pub fn factor(self) -> f64 {
        match self {
            Drive::X1 => 1.0,
            Drive::X2 => 2.0,
            Drive::X4 => 4.0,
        }
    }

    /// The next stronger variant, if any.
    pub fn upsize(self) -> Option<Drive> {
        match self {
            Drive::X1 => Some(Drive::X2),
            Drive::X2 => Some(Drive::X4),
            Drive::X4 => None,
        }
    }
}

/// One library cell (a logic function at a drive strength).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Liberty-style name, e.g. `FA_X2`.
    pub name: String,
    /// Implemented function.
    pub kind: GateKind,
    /// Drive strength.
    pub drive: Drive,
    /// Cell area in µm².
    pub area_um2: f64,
    /// Capacitance of each input pin in fF.
    pub input_cap_ff: f64,
    /// Intrinsic delay per output in ns (`[out0, out1, out2]`).
    pub intrinsic_ns: [f64; 3],
    /// Output drive resistance in kΩ (1 kΩ · 1 fF = 1 ps).
    pub drive_res_kohm: f64,
    /// Leakage power in nW.
    pub leakage_nw: f64,
    /// Internal switching energy per output transition in fJ.
    pub internal_energy_fj: f64,
}

/// Per-function X1 base parameters:
/// (area, cap, intrinsics, resistance, leakage, energy).
fn base(kind: GateKind) -> (f64, f64, [f64; 3], f64, f64, f64) {
    match kind {
        //                       area   cap  [int0, int1, int2]       R    leak  E
        GateKind::Inv => (0.532, 1.6, [0.008, 0.0, 0.0], 5.0, 1.5, 0.30),
        GateKind::Buf => (0.798, 1.5, [0.025, 0.0, 0.0], 4.5, 2.0, 0.50),
        GateKind::And2 => (1.064, 1.7, [0.030, 0.0, 0.0], 5.5, 2.8, 0.65),
        GateKind::Or2 => (1.064, 1.7, [0.032, 0.0, 0.0], 5.5, 2.9, 0.65),
        GateKind::Nand2 => (0.798, 1.7, [0.014, 0.0, 0.0], 5.5, 2.3, 0.45),
        GateKind::Nor2 => (0.798, 1.9, [0.018, 0.0, 0.0], 6.5, 2.3, 0.45),
        GateKind::Xor2 => (1.596, 2.5, [0.045, 0.0, 0.0], 6.0, 3.8, 1.10),
        GateKind::Xnor2 => (1.596, 2.5, [0.045, 0.0, 0.0], 6.0, 3.8, 1.10),
        GateKind::Mux2 => (1.862, 2.0, [0.040, 0.0, 0.0], 6.0, 4.0, 1.00),
        // Full adder: sum (out0) slower than carry (out1).
        GateKind::FullAdder => (4.256, 2.8, [0.110, 0.075, 0.0], 6.5, 9.5, 2.60),
        GateKind::HalfAdder => (2.394, 2.3, [0.055, 0.040, 0.0], 6.0, 5.5, 1.40),
        // 4:2 compressor: cheaper and faster than two discrete FAs
        // (shared XOR network); cout (out2) is a single-FA-carry arc.
        GateKind::Compressor42 => (7.448, 2.9, [0.165, 0.125, 0.075], 6.5, 16.5, 4.40),
        // DFF: intrinsic is clk→Q.
        GateKind::Dff => (4.522, 1.8, [0.085, 0.0, 0.0], 5.0, 10.0, 2.80),
    }
}

/// Area growth per drive step (X2 ≈ 1.5×, X4 ≈ 2.5× — the NanGate
/// pattern, where upsizing shares the cell's static structure).
fn area_factor(drive: Drive) -> f64 {
    match drive {
        Drive::X1 => 1.0,
        Drive::X2 => 1.5,
        Drive::X4 => 2.5,
    }
}

/// Every gate kind in declaration order: the library holds one cell per
/// kind and drive, kind-major, so [`Library::cell_index`] is
/// arithmetic on the two discriminants.
const KINDS: [GateKind; 13] = [
    GateKind::Inv,
    GateKind::Buf,
    GateKind::And2,
    GateKind::Or2,
    GateKind::Nand2,
    GateKind::Nor2,
    GateKind::Xor2,
    GateKind::Xnor2,
    GateKind::Mux2,
    GateKind::HalfAdder,
    GateKind::FullAdder,
    GateKind::Compressor42,
    GateKind::Dff,
];

/// A complete cell library plus interconnect/environment parameters.
#[derive(Debug, Clone)]
pub struct Library {
    name: String,
    cells: Vec<Cell>,
    /// Estimated wire load added per fanout pin, fF.
    pub wire_cap_per_fanout_ff: f64,
    /// Load presented by a primary output, fF.
    pub output_load_ff: f64,
    /// Flip-flop setup time, ns.
    pub setup_ns: f64,
    /// Supply voltage, V (for dynamic-power scaling).
    pub vdd: f64,
}

impl Library {
    /// Builds the NanGate45-flavoured default library.
    pub fn nangate45() -> Self {
        let mut cells = Vec::new();
        for kind in KINDS {
            let (area, cap, intrinsics, r, leak, e) = base(kind);
            for drive in Drive::ALL {
                let f = drive.factor();
                cells.push(Cell {
                    name: format!("{}_X{}", super::map::kind_cell_stem(kind), f as u32),
                    kind,
                    drive,
                    area_um2: area * area_factor(drive),
                    input_cap_ff: cap * f,
                    intrinsic_ns: intrinsics,
                    drive_res_kohm: r / f,
                    leakage_nw: leak * f,
                    internal_energy_fj: e * f,
                });
            }
        }
        Library {
            name: "nangate45-flavoured".to_owned(),
            cells,
            wire_cap_per_fanout_ff: 0.6,
            output_load_ff: 4.0,
            setup_ns: 0.05,
            vdd: 1.1,
        }
    }

    /// Library name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Index of the cell implementing `kind` at `drive`: a position
    /// in the kind-major × [`Drive::ALL`] layout every library is
    /// built in.
    pub fn cell_index(&self, kind: GateKind, drive: Drive) -> usize {
        let index = kind as usize * Drive::ALL.len() + drive as usize;
        debug_assert!(self.cells[index].kind == kind && self.cells[index].drive == drive);
        index
    }

    /// The cell at `index`.
    pub fn cell(&self, index: usize) -> &Cell {
        &self.cells[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn library_is_complete_over_kinds_and_drives() {
        let lib = Library::nangate45();
        assert_eq!(lib.cells().len(), 13 * 3);
        for drive in Drive::ALL {
            let idx = lib.cell_index(GateKind::FullAdder, drive);
            assert_eq!(lib.cell(idx).drive, drive);
        }
    }

    #[test]
    fn cell_index_matches_the_cell_it_names() {
        let lib = Library::nangate45();
        for (i, cell) in lib.cells().iter().enumerate() {
            assert_eq!(lib.cell_index(cell.kind, cell.drive), i, "{}", cell.name);
        }
    }

    #[test]
    fn fo4_delay_is_about_50ps() {
        let lib = Library::nangate45();
        let inv = lib.cell(lib.cell_index(GateKind::Inv, Drive::X1));
        let load = 4.0 * inv.input_cap_ff + 4.0 * lib.wire_cap_per_fanout_ff;
        let d = inv.intrinsic_ns[0] + inv.drive_res_kohm * load / 1000.0;
        assert!((0.03..=0.07).contains(&d), "FO4 = {d} ns");
    }

    #[test]
    fn upsizing_lowers_resistance_and_raises_area() {
        let lib = Library::nangate45();
        let x1 = lib.cell(lib.cell_index(GateKind::Nand2, Drive::X1));
        let x4 = lib.cell(lib.cell_index(GateKind::Nand2, Drive::X4));
        assert!(x4.drive_res_kohm < x1.drive_res_kohm / 3.0);
        assert!(x4.area_um2 > x1.area_um2 * 2.0);
        assert!(x4.input_cap_ff > x1.input_cap_ff);
    }

    #[test]
    fn drive_upsize_chain_terminates() {
        assert_eq!(Drive::X1.upsize(), Some(Drive::X2));
        assert_eq!(Drive::X2.upsize(), Some(Drive::X4));
        assert_eq!(Drive::X4.upsize(), None);
    }

    #[test]
    fn cell_names_are_unique() {
        let lib = Library::nangate45();
        let mut names: Vec<&str> = lib.cells().iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn comp42_is_cheaper_than_two_full_adders() {
        let lib = Library::nangate45();
        let fa = lib.cell(lib.cell_index(GateKind::FullAdder, Drive::X1));
        let c42 = lib.cell(lib.cell_index(GateKind::Compressor42, Drive::X1));
        assert!(c42.area_um2 < 2.0 * fa.area_um2);
        // The cout arc is a single-FA carry arc.
        assert!((c42.intrinsic_ns[2] - fa.intrinsic_ns[1]).abs() < 1e-9);
    }

    #[test]
    fn full_adder_sum_is_slower_than_carry() {
        let lib = Library::nangate45();
        let fa = lib.cell(lib.cell_index(GateKind::FullAdder, Drive::X1));
        assert!(fa.intrinsic_ns[0] > fa.intrinsic_ns[1]);
    }
}
