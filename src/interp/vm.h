// Bytecode executor for the compiled Module of bytecode.h.
//
// Runs the flat register program with a tight dispatch loop: scalar reads
// are one pointer dereference (slot tables resolved at Interpreter
// construction), array accesses use the precompiled descriptors, a CALL
// reuses the calling thread's frame for its depth, and an OMP PARALLEL DO
// lane runs the loop's lane body against the encountering frame plus its
// own private cells, so entering a region costs O(privates) instead of
// the tree-walker's copy of string-keyed frame maps.
//
// The contract (see bytecode.h) is bit-identical RunResult output with the
// tree-walker, including error messages, statement counters and OMP
// copy-in/copy-out/reduction semantics.
#pragma once

#include "interp/bytecode.h"
#include "interp/interp.h"

namespace ap::interp::bc {

// Execute the module's main PROGRAM unit. `compile_ms` (the AST-to-bytecode
// compile time measured by the caller) is copied into the result so drivers
// and telemetry can report it.
RunResult execute(const Module& m, const InterpOptions& opts,
                  GlobalStore& globals, double compile_ms);

}  // namespace ap::interp::bc
