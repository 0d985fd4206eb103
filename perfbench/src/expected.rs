//! Recorded outputs the benchmark checks every run against.
//!
//! The simulator is deterministic, so a measured region's cycles,
//! committed instructions and CPI-stack total are fixed by the seed. They
//! are recorded here for the default seed and for one held-out seed that
//! a later performance claim can be re-checked on. Every other seed is
//! checked for self-consistency only (see [`check_cell`]).
//!
//! Regenerate the tables with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload <w> --seed <s> --print-expected`
//! only when a change is meant to move the model's results.

use crate::layers::CellResult;
use crate::Workload;

/// The seed the tables are recorded for.
pub const DEFAULT_SEED: u64 = 1;

/// A second recorded seed, kept out of tuning so claims can be re-checked
/// on inputs they were not written against.
pub const HELD_OUT_SEED: u64 = 0x5EED;

/// Recorded outputs of one measured region: a program under a mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CellExpect {
    /// `program/mode`.
    pub cell: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Sum of the CPI stack.
    pub cpi_total: u64,
}

/// Recorded outputs of one workload at one seed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expected {
    /// spec-roi and storm-audit: one entry per measured region.
    Cells(Vec<CellExpect>),
    /// smith-campaign: the campaign's squash total and its findings.
    Campaign {
        /// Squashes summed over the passing seeds' scheme runs.
        squashes: u64,
        /// The campaign's violations, as `seed scheme oracle`, in seed
        /// order: defects the fuzzer finds in the simulator. They are the
        /// campaign's output, recorded so that a change which fixes or
        /// adds one shows.
        findings: Vec<String>,
    },
}

/// The recorded outputs for `workload` at `seed`, if any.
pub fn recorded(workload: Workload, seed: u64) -> Option<Expected> {
    let cells = |rows: &[Row]| {
        let cells = rows
            .iter()
            .map(|&(cell, cycles, insts, cpi_total)| CellExpect {
                cell,
                cycles,
                insts,
                cpi_total,
            });
        Some(Expected::Cells(cells.collect()))
    };
    match (workload, seed) {
        (Workload::SpecRoi, DEFAULT_SEED) => cells(&SPEC_ROI_DEFAULT),
        (Workload::SpecRoi, HELD_OUT_SEED) => cells(&SPEC_ROI_HELD_OUT),
        (Workload::StormAudit, DEFAULT_SEED) => cells(&STORM_AUDIT_DEFAULT),
        (Workload::StormAudit, HELD_OUT_SEED) => cells(&STORM_AUDIT_HELD_OUT),
        (Workload::SmithCampaign, DEFAULT_SEED) => campaign(SMITH_DEFAULT),
        (Workload::SmithCampaign, HELD_OUT_SEED) => campaign(SMITH_HELD_OUT),
        _ => None,
    }
}

fn campaign((squashes, findings): (u64, &[&str])) -> Option<Expected> {
    Some(Expected::Campaign {
        squashes,
        findings: findings.iter().map(|f| f.to_string()).collect(),
    })
}

/// Checks one measured region. `first` holds the first untraced result
/// for this region in the run (set on the first call): every later
/// round, traced or not, must reproduce it exactly. Returns the problems
/// found, empty when the region is correct.
pub fn check_cell(
    expected: Option<&Expected>,
    cell: &str,
    first: &mut Option<CellResult>,
    got: &CellResult,
) -> Vec<String> {
    let mut problems = Vec::new();
    if got.cpi_total() != got.cycles * got.cores {
        problems.push(format!(
            "CPI stack sums to {} over {} cycles x {} cores",
            got.cpi_total(),
            got.cycles,
            got.cores
        ));
    }
    match expected {
        Some(Expected::Cells(table)) => match table.iter().find(|e| e.cell == cell) {
            Some(e) => {
                let seen = (got.cycles, got.insts, got.cpi_total());
                if seen != (e.cycles, e.insts, e.cpi_total) {
                    problems.push(format!(
                        "(cycles, insts, cpi_total) = {seen:?}, recorded {:?}",
                        (e.cycles, e.insts, e.cpi_total)
                    ));
                }
            }
            None => problems.push("no recorded value for this region".to_string()),
        },
        Some(Expected::Campaign { .. }) => problems.push("recorded table is for a campaign".into()),
        None => {}
    }
    match first {
        Some(f) if f != got => problems.push(format!(
            "differs from the run's first untraced round: {got:?} vs {f:?}"
        )),
        Some(_) => {}
        None => *first = Some(got.clone()),
    }
    problems
}

/// A recorded [`CellExpect`]: `(cell, cycles, insts, cpi_total)`.
type Row = (&'static str, u64, u64, u64);

/// Renders measured regions as table rows.
pub fn render_cells(cells: &[(String, CellResult)]) -> String {
    cells
        .iter()
        .map(|(name, r)| {
            format!(
                "    (\"{name}\", {}, {}, {}),\n",
                r.cycles,
                r.insts,
                r.cpi_total()
            )
        })
        .collect()
}

const SPEC_ROI_DEFAULT: [Row; 38] = [
    ("astar/non-secure", 18861, 40001, 18861),
    ("gobmk/non-secure", 18121, 40002, 18121),
    ("sjeng/non-secure", 16331, 40002, 16331),
    ("bzip2/non-secure", 18954, 40003, 18954),
    ("perl/non-secure", 16107, 40001, 16107),
    ("povray/non-secure", 16157, 40000, 16157),
    ("gromacs/non-secure", 17990, 40000, 17990),
    ("h264/non-secure", 15697, 40001, 15697),
    ("namd/non-secure", 14983, 40000, 14983),
    ("sphinx3/non-secure", 19127, 40002, 19127),
    ("wrf/non-secure", 14616, 40000, 14616),
    ("hmmer/non-secure", 14737, 40001, 14737),
    ("mcf/non-secure", 17888, 40002, 17888),
    ("soplex/non-secure", 19351, 40000, 19351),
    ("gcc/non-secure", 13946, 40002, 13946),
    ("lbm/non-secure", 20731, 40003, 20731),
    ("cactus/non-secure", 15527, 40000, 15527),
    ("milc/non-secure", 17838, 40000, 17838),
    ("libq/non-secure", 20246, 40001, 20246),
    ("astar/cleanupspec", 20915, 40000, 20915),
    ("gobmk/cleanupspec", 20014, 40002, 20014),
    ("sjeng/cleanupspec", 16882, 40000, 16882),
    ("bzip2/cleanupspec", 21292, 40003, 21292),
    ("perl/cleanupspec", 16964, 40001, 16964),
    ("povray/cleanupspec", 17296, 40000, 17296),
    ("gromacs/cleanupspec", 18836, 40000, 18836),
    ("h264/cleanupspec", 16359, 40000, 16359),
    ("namd/cleanupspec", 15437, 40000, 15437),
    ("sphinx3/cleanupspec", 20399, 40002, 20399),
    ("wrf/cleanupspec", 15091, 40000, 15091),
    ("hmmer/cleanupspec", 14946, 40001, 14946),
    ("mcf/cleanupspec", 18681, 40000, 18681),
    ("soplex/cleanupspec", 20224, 40000, 20224),
    ("gcc/cleanupspec", 14009, 40002, 14009),
    ("lbm/cleanupspec", 21200, 40003, 21200),
    ("cactus/cleanupspec", 15651, 40000, 15651),
    ("milc/cleanupspec", 18043, 40000, 18043),
    ("libq/cleanupspec", 20539, 40001, 20539),
];

const SPEC_ROI_HELD_OUT: [Row; 38] = [
    ("astar/non-secure", 19247, 40003, 19247),
    ("gobmk/non-secure", 17971, 40000, 17971),
    ("sjeng/non-secure", 16838, 40000, 16838),
    ("bzip2/non-secure", 18635, 40001, 18635),
    ("perl/non-secure", 16466, 40000, 16466),
    ("povray/non-secure", 15071, 40002, 15071),
    ("gromacs/non-secure", 17350, 40000, 17350),
    ("h264/non-secure", 15722, 40002, 15722),
    ("namd/non-secure", 15509, 40000, 15509),
    ("sphinx3/non-secure", 18356, 40000, 18356),
    ("wrf/non-secure", 14769, 40002, 14769),
    ("hmmer/non-secure", 15150, 40003, 15150),
    ("mcf/non-secure", 17391, 40002, 17391),
    ("soplex/non-secure", 18952, 40001, 18952),
    ("gcc/non-secure", 13956, 40002, 13956),
    ("lbm/non-secure", 20250, 40003, 20250),
    ("cactus/non-secure", 14796, 40002, 14796),
    ("milc/non-secure", 18544, 40002, 18544),
    ("libq/non-secure", 20075, 40002, 20075),
    ("astar/cleanupspec", 21671, 40002, 21671),
    ("gobmk/cleanupspec", 19827, 40000, 19827),
    ("sjeng/cleanupspec", 17972, 40000, 17972),
    ("bzip2/cleanupspec", 20971, 40001, 20971),
    ("perl/cleanupspec", 17390, 40000, 17390),
    ("povray/cleanupspec", 15535, 40002, 15535),
    ("gromacs/cleanupspec", 18327, 40000, 18327),
    ("h264/cleanupspec", 16305, 40002, 16305),
    ("namd/cleanupspec", 16307, 40000, 16307),
    ("sphinx3/cleanupspec", 19715, 40000, 19715),
    ("wrf/cleanupspec", 15247, 40002, 15247),
    ("hmmer/cleanupspec", 15453, 40003, 15453),
    ("mcf/cleanupspec", 18040, 40002, 18040),
    ("soplex/cleanupspec", 19661, 40001, 19661),
    ("gcc/cleanupspec", 14114, 40002, 14114),
    ("lbm/cleanupspec", 20739, 40003, 20739),
    ("cactus/cleanupspec", 14900, 40002, 14900),
    ("milc/cleanupspec", 18769, 40002, 18769),
    ("libq/cleanupspec", 20363, 40002, 20363),
];

const STORM_AUDIT_DEFAULT: [Row; 8] = [
    ("mispredict-storm-0/cleanupspec", 114568, 29917, 114568),
    ("mispredict-storm-0/non-secure", 30864, 29917, 30864),
    ("mispredict-storm-1/cleanupspec", 112344, 29521, 112344),
    ("mispredict-storm-1/non-secure", 30899, 29521, 30899),
    ("mispredict-storm-2/cleanupspec", 106110, 30307, 106110),
    ("mispredict-storm-2/non-secure", 31120, 30307, 31120),
    ("mispredict-storm-3/cleanupspec", 109575, 30121, 109575),
    ("mispredict-storm-3/non-secure", 31519, 30121, 31519),
];

const STORM_AUDIT_HELD_OUT: [Row; 8] = [
    ("mispredict-storm-0/cleanupspec", 110774, 30145, 110774),
    ("mispredict-storm-0/non-secure", 31082, 30145, 31082),
    ("mispredict-storm-1/cleanupspec", 112781, 29353, 112781),
    ("mispredict-storm-1/non-secure", 30384, 29353, 30384),
    ("mispredict-storm-2/cleanupspec", 110040, 30175, 110040),
    ("mispredict-storm-2/non-secure", 31089, 30175, 31089),
    ("mispredict-storm-3/cleanupspec", 113196, 30067, 113196),
    ("mispredict-storm-3/non-secure", 31561, 30067, 31561),
];

const SMITH_DEFAULT: (u64, &[&str]) = (
    67494,
    &[
        "0x42e cleanupspec audit",
        "0x42e cleanupspec episode",
        "0x44b naive-invalidate audit",
    ],
);
const SMITH_HELD_OUT: (u64, &[&str]) = (68095, &["0x172ce0f naive-invalidate audit"]);
