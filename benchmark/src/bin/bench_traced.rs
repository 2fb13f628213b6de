//! `bench` with every allocation counted: the process the traced pass runs
//! in. End-to-end numbers never come from this binary.

#[global_allocator]
static COUNTING: sperr_benchmark::alloc::Counting = sperr_benchmark::alloc::Counting;

fn main() -> std::process::ExitCode {
    sperr_benchmark::report::main()
}
