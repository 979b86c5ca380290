//! The traced run's rebuilt routes answer byte for byte as the stock
//! routes do, on both router kinds.

use hyrec_loadbench::stack::Workload;
use hyrec_loadbench::traced::check_identity;

#[test]
fn traced_plain_routes_match_the_stock_routes() {
    let compared = check_identity(Workload::OnlineMl2, 3).expect("identical responses");
    assert!(compared > 50, "only {compared} responses compared");
}

#[test]
fn traced_scheduled_routes_match_the_stock_routes() {
    let compared = check_identity(Workload::ChurnMl1, 3).expect("identical responses");
    assert!(compared > 50, "only {compared} responses compared");
}
