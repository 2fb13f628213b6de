fn main() -> std::process::ExitCode {
    sperr_benchmark::report::main()
}
