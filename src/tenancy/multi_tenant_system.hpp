// MultiTenantSystem: UvmSystem's old name for a run of tenants on one
// device (core/uvm_system.hpp). bench/ledger/uvmbench.cpp still names it;
// the alias goes when the benchmark builds its experiments through
// run_experiment.
#pragma once

#include "core/uvm_system.hpp"

namespace uvmsim {

using MultiTenantSystem = UvmSystem;

}  // namespace uvmsim
