//! Seeded bug: a wall-clock reading leaks into a deterministic cost
//! column through a helper.  `run_query` gets the tainted value back
//! from `sample_clock` and hands it to `record`, which writes
//! `sim_db_seconds` — a column the determinism contract says must be
//! derived from the simulated cost model only.

pub fn run_query(cost: &mut QueryCost) {
    let elapsed = sample_clock();
    record(cost, elapsed);
}

fn sample_clock() -> f64 {
    let started = Instant::now(); // LINT: det-taint
    started.elapsed().as_secs_f64()
}

fn record(cost: &mut QueryCost, elapsed: f64) {
    cost.sim_db_seconds += elapsed;
}
