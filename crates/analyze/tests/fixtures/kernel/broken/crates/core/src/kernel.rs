// A `kernel*` file outside the kernel crates scopes nothing: `core`'s
// API edges may build a region from ids.

fn fine_api_edge(geom: Geom, ids: Vec<u64>) -> Region {
    Region::from_ids(geom, ids)
}
