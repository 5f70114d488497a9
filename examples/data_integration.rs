//! Data integration at scale: many sources, many departments, partial reliability.
//!
//! Run with `cargo run --example data_integration --release`.
//!
//! A scaled-up version of the paper's motivating scenario: several sources report
//! managers for a set of departments and disagree with some probability. The example
//! integrates the sources, derives a priority from the source-reliability order, and
//! compares how much certain knowledge each repair family recovers.

use std::sync::Arc;

use pdqi::cleaning::{Cleaner, DataSource, Integration, ResolutionRule};
use pdqi::datagen::IntegrationScenario;
use pdqi::priority::priority_from_source_reliability;
use pdqi::query::builder::{atom, exists, var};
use pdqi::{Change, EngineBuilder, FamilyKind, Parallelism, PreparedQuery, RelationInstance};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2006);
    let scenario = IntegrationScenario::generate(6, 3, 0.3, &mut rng);

    // Integrate the sources with provenance so both the cleaner and the priority can use it.
    let sources: Vec<DataSource> = scenario
        .sources
        .iter()
        .enumerate()
        .map(|(i, (name, rows))| DataSource::new(name.clone(), rows.clone(), i as i64))
        .collect();
    let integration =
        Integration::integrate(Arc::clone(&scenario.schema), &sources).expect("valid rows");
    let instance: &RelationInstance = integration.instance();
    println!(
        "Integrated {} sources into {} tuples over {} departments",
        scenario.sources.len(),
        instance.len(),
        6
    );

    let base = EngineBuilder::new()
        .relation(instance.clone(), scenario.fds.clone())
        .build()
        .expect("snapshot builds");
    println!("Conflict graph: {}", base.graph().stats());
    println!("Repairs: {}", base.count_repairs());

    // Priority from source reliability (earlier sources are more reliable); deriving a
    // snapshot from the priority change shares the conflict graph and the untouched
    // memoised work.
    let priority = priority_from_source_reliability(
        Arc::clone(base.graph()),
        &integration.primary_sources(),
        &scenario.reliability,
    );
    println!(
        "Priority orients {} of {} conflict edges",
        priority.edge_count(),
        base.graph().edge_count()
    );
    let change = Change::Priority { relation: "Mgr".to_string(), priority };
    let (snapshot, _) = base.derive(&change, Parallelism::sequential()).expect("the priority fits");

    // How many departments have a *certain* manager under each family?
    let dept_with_manager =
        exists(&["n", "s", "r"], atom("Mgr", vec![var("n"), var("d"), var("s"), var("r")]));
    let dept_query = PreparedQuery::from_formula(dept_with_manager);
    println!(
        "\nDepartments with a certain manager (certain answers to `∃n,s,r. Mgr(n, d, s, r)`):"
    );
    for kind in FamilyKind::ALL {
        let certain = dept_query.certain_answers(&snapshot, kind).expect("valid query").len();
        let count = snapshot.preferred_repair_count(kind);
        println!(
            "  {:<6} {:>3} certain departments ({} preferred repairs)",
            kind.label(),
            certain,
            count
        );
    }
    let stats = snapshot.memo_stats();
    println!(
        "Snapshot memo after the sweep: {} component enumerations, {} reused",
        stats.component_misses, stats.component_hits
    );

    // Contrast with the cleaning pipeline driven by the same reliability information.
    let graph = snapshot.graph();
    let outcome = Cleaner::new()
        .with_rule(ResolutionRule::PreferReliableSource(scenario.reliability.clone()))
        .clean(&integration, graph);
    println!(
        "\nCleaning with the same reliability rules keeps {} of {} tuples, \
         contingency table holds {}, still inconsistent: {}",
        outcome.kept.len(),
        instance.len(),
        outcome.contingency.len(),
        outcome.still_inconsistent()
    );
}
