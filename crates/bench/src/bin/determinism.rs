//! Prints the golden ledger, the transcript `results/determinism.txt`
//! records (see `lmas_bench::ledger`).

fn main() {
    print!("{}", lmas_bench::ledger::render());
}
