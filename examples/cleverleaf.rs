//! The CleverLeaf driver — a command-line front end over the full
//! library, the shape a downstream user actually runs:
//!
//! ```text
//! cargo run --release --example cleverleaf -- \
//!     [--problem sod|triple|sedov | --deck clover.in] [--cells N] [--levels L] \
//!     [--placement host|device|copyback] [--ranks R] \
//!     [--steps N | --time T] [--vtk DIR] [--summary-every N]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release --example cleverleaf -- --problem sod --cells 128 --steps 100
//! cargo run --release --example cleverleaf -- --problem triple --ranks 4 --time 0.5
//! cargo run --release --example cleverleaf -- --placement copyback --steps 20
//! ```

use rbamr::hydro::{HydroConfig, HydroSim, Placement, RegionInit};
use rbamr::netsim::Cluster;
use rbamr::perfmodel::{Category, Machine};
use rbamr::problems::{parse_deck, sedov::sedov_regions, sod_regions, triple_point_regions};
use std::path::PathBuf;

/// A parsed problem setup: physical extent, coarse cells, regions.
type Setup = ((f64, f64), (i64, i64), Vec<RegionInit>);

#[derive(Clone, Debug)]
struct Args {
    problem: String,
    deck: Option<PathBuf>,
    cells: i64,
    levels: usize,
    placement: Placement,
    ranks: usize,
    steps: Option<usize>,
    t_end: Option<f64>,
    vtk: Option<PathBuf>,
    summary_every: usize,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            problem: "sod".into(),
            deck: None,
            cells: 64,
            levels: 3,
            placement: Placement::Device,
            ranks: 1,
            steps: None,
            t_end: None,
            vtk: None,
            summary_every: 10,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--problem" => args.problem = value()?,
                "--deck" => args.deck = Some(PathBuf::from(value()?)),
                "--cells" => args.cells = value()?.parse().map_err(|e| format!("{e}"))?,
                "--levels" => args.levels = value()?.parse().map_err(|e| format!("{e}"))?,
                "--ranks" => args.ranks = value()?.parse().map_err(|e| format!("{e}"))?,
                "--steps" => args.steps = Some(value()?.parse().map_err(|e| format!("{e}"))?),
                "--time" => args.t_end = Some(value()?.parse().map_err(|e| format!("{e}"))?),
                "--vtk" => args.vtk = Some(PathBuf::from(value()?)),
                "--summary-every" => {
                    args.summary_every = value()?.parse().map_err(|e| format!("{e}"))?
                }
                "--placement" => {
                    args.placement = match value()?.as_str() {
                        "host" => Placement::Host,
                        "device" => Placement::Device,
                        "copyback" => Placement::DeviceCopyBack,
                        other => return Err(format!("unknown placement {other}")),
                    }
                }
                "--help" | "-h" => {
                    println!("see the module docs at the top of examples/cleverleaf.rs");
                    std::process::exit(0);
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }

    fn setup(&mut self) -> Result<Setup, String> {
        if let Some(path) = &self.deck {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{e}"))?;
            let deck = parse_deck(&text).map_err(|e| format!("{e}"))?;
            if !deck.ignored.is_empty() {
                eprintln!("(deck keys ignored: {})", deck.ignored.join(", "));
            }
            self.levels = deck.max_levels;
            if self.steps.is_none() && self.t_end.is_none() {
                self.steps = deck.end_step;
                self.t_end = deck.end_time;
            }
            self.problem = format!("deck {}", path.display());
            return Ok((deck.extent, deck.cells, deck.regions));
        }
        match self.problem.as_str() {
            "sod" => Ok(((1.0, 1.0), (self.cells, self.cells), sod_regions())),
            "triple" => {
                let ny = self.cells;
                Ok(((7.0, 3.0), (ny * 7 / 3, ny), triple_point_regions()))
            }
            "sedov" => Ok(((1.0, 1.0), (self.cells, self.cells), sedov_regions(1.0, 0.06, 8.0))),
            other => Err(format!("unknown problem {other} (sod|triple|sedov)")),
        }
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut args = args;
    let (extent, cells, regions) = match args.setup() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if args.steps.is_none() && args.t_end.is_none() {
        args.steps = Some(50);
    }
    let machine = match args.placement {
        Placement::Host => Machine::ipa_cpu_node(),
        _ => Machine::ipa_gpu(),
    };
    println!(
        "CleverLeaf: {} on {}x{} cells, {} levels, {:?}, {} rank(s)",
        args.problem, cells.0, cells.1, args.levels, args.placement, args.ranks
    );

    let cluster = Cluster::new(machine.clone());
    let a = args.clone();
    let results = cluster.run(args.ranks, move |comm| {
        let comm_opt = if comm.size() > 1 { Some(&comm) } else { None };
        let mut config = HydroConfig::default();
        if comm.size() > 1 {
            let max_patch =
                (cells.0 as f64 / (comm.size() as f64).sqrt() / 2.0).clamp(16.0, 512.0) as i64;
            config.max_patch_size = max_patch;
            config.regrid.max_patch_size = max_patch;
        }
        let mut sim = HydroSim::new(
            machine.clone(),
            a.placement,
            comm.clock().clone(),
            extent,
            cells,
            a.levels,
            2,
            config,
            regions.clone(),
            comm.rank(),
            comm.size(),
        );
        sim.initialize(comm_opt);

        let mut steps_done = 0usize;
        loop {
            let finished = match (a.steps, a.t_end) {
                (Some(n), _) => steps_done >= n,
                (_, Some(t)) => sim.time() >= t,
                _ => unreachable!(),
            };
            if finished {
                break;
            }
            let stats = sim.step(comm_opt);
            steps_done += 1;
            if comm.rank() == 0 && steps_done.is_multiple_of(a.summary_every) {
                println!(
                    "  step {:>5}  t = {:.5}  dt = {:.3e}  levels = {}  cells = {}",
                    steps_done, stats.time, stats.dt, stats.levels, stats.total_cells
                );
            }
        }
        let summary = sim.summary(comm_opt);
        if let Some(dir) = &a.vtk {
            if comm.size() == 1 {
                if comm.rank() == 0 {
                    let n = sim.write_vtk_dump(dir).expect("vtk dump failed");
                    println!("wrote {n} VTK files to {}", dir.display());
                }
            } else {
                let n = sim.write_vtk_dump_distributed(dir, &comm).expect("vtk dump failed");
                if comm.rank() == 0 {
                    println!("wrote {n} VTK files to {}", dir.display());
                }
            }
        }
        (summary, sim.time(), steps_done)
    });

    let (summary, t_end, steps) = results[0].value;
    let job = Cluster::job_time(&results);
    println!("\nfinished: {steps} steps to t = {t_end:.5}");
    println!("mass = {:.10}  total energy = {:.10}", summary.mass, summary.total_energy());
    println!(
        "modelled runtime: {:.3} s (hydro {:.3}, dt {:.3}, sync {:.3}, regrid {:.3})",
        job.total(),
        job.hydrodynamics(),
        job.get(Category::Timestep),
        job.get(Category::Synchronize),
        job.get(Category::Regrid),
    );
}
