/**
 * @file
 * The per-layer metric table of a traced run. Every workload reports the
 * same names; run.py checks them and their units against BENCHMARK.json's
 * per_layer list. A layer a workload does not exercise, or cannot observe
 * from outside, reads 0.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>

#include "common.h"

namespace perfbench {

class LayerTable
{
  public:
    /** Set a metric of the schema; an unknown name is a harness bug. */
    void set(const std::string& name, double value);

    /** Report every metric of the schema, in schema order. */
    void emit(Report& report) const;

  private:
    std::map<std::string, double> values_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
