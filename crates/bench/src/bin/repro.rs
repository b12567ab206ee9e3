//! `repro` — regenerate the paper's tables and figures from synthetic
//! traces.
//!
//! ```text
//! repro --all [--scale F] [--out DIR]
//! repro --table N | --figure N | --dimensioning
//! repro --list
//! ```

use std::io::Write as _;
use std::process::ExitCode;

use dnhunter_bench::experiments::{by_id, registry};
use dnhunter_bench::Harness;

fn usage() -> &'static str {
    "usage: repro [--all] [--table N] [--figure N] [--dimensioning] \
     [--scale F] [--out DIR] [--list]\n\
     --all            run every experiment (default if nothing selected)\n\
     --table N        run Table N (1-9)\n\
     --figure N       run Figure N (3-14)\n\
     --dimensioning   run the §6 Clist sizing analysis\n\
     --scale F        client-population scale factor (default 0.25)\n\
     --out DIR        also write one .txt file per experiment into DIR\n\
     --list           list experiment ids and exit"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 0.25f64;
    let mut out_dir: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut all = false;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => all = true,
            "--list" => {
                for e in registry() {
                    println!("{:<14} {}", e.id, e.description);
                }
                return ExitCode::SUCCESS;
            }
            "--table" | "--figure" => {
                let kind = if args[i] == "--table" { "table" } else { "fig" };
                i += 1;
                let Some(n) = args.get(i) else {
                    eprintln!("{}", usage());
                    return ExitCode::FAILURE;
                };
                selected.push(format!("{kind}{n}"));
            }
            "--dimensioning" => selected.push("dimensioning".into()),
            "--scale" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(f) if f > 0.0 => scale = f,
                    _ => {
                        eprintln!("--scale needs a positive number");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(d) => out_dir = Some(d.clone()),
                    None => {
                        eprintln!("--out needs a directory");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
        i += 1;
    }

    if selected.is_empty() {
        all = true;
    }
    let experiments: Vec<_> = if all {
        registry()
    } else {
        let mut v = Vec::new();
        for id in &selected {
            match by_id(id) {
                Some(e) => v.push(e),
                None => {
                    eprintln!("unknown experiment '{id}' (try --list)");
                    return ExitCode::FAILURE;
                }
            }
        }
        v
    };

    if let Some(dir) = &out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let mut harness = Harness::new(scale);
    eprintln!(
        "# running {} experiment(s) at scale {scale} — traces are generated once and reused",
        experiments.len()
    );
    for e in experiments {
        eprintln!("# {} — {}", e.id, e.description);
        let started = std::time::Instant::now();
        let text = (e.run)(&mut harness);
        eprintln!("#   done in {:.1}s", started.elapsed().as_secs_f64());
        println!("{text}");
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.txt", e.id);
            match std::fs::File::create(&path) {
                Ok(mut f) => {
                    let _ = f.write_all(text.as_bytes());
                }
                Err(err) => eprintln!("cannot write {path}: {err}"),
            }
        }
    }
    ExitCode::SUCCESS
}
