#include "layers.h"

#include <stdexcept>
#include <vector>

namespace perfbench {

namespace {

struct Column
{
    const char* name;
    const char* unit;
};

// Times are thread-seconds summed over the pool, per read basecalled in
// the traced window, unless the unit says otherwise.
const std::vector<Column>&
schema()
{
    static const std::vector<Column> columns = {
        {"core.vmm_s", "s/read"},
        {"core.vmm.conv0.w_s", "s/read"},
        {"core.vmm.lstm0.wih_s", "s/read"},
        {"core.vmm.lstm0.whh_s", "s/read"},
        {"core.vmm.lstm1.wih_s", "s/read"},
        {"core.vmm.lstm1.whh_s", "s/read"},
        {"core.vmm.lstm2.wih_s", "s/read"},
        {"core.vmm.lstm2.whh_s", "s/read"},
        {"core.vmm.head.w_s", "s/read"},
        {"core.vmm_ns_per_adc", "ns"},
        {"core.program_s", "s/compile"},
        {"core.vmm_calls_per_read", "calls/read"},
        {"crossbar.adc_conv_per_read", "conv/read"},
        {"crossbar.dac_conv_per_read", "conv/read"},
        {"crossbar.tile_vmms_per_read", "vmm/read"},
        {"nn.forward_self_s", "s/read"},
        {"tensor.gemm_s", "s/read"},
        {"basecall.gather_s", "s/read"},
        {"basecall.ctc_s", "s/read"},
        {"basecall.train_s", "s"},
        {"genomics.map_s", "s/read"},
        {"genomics.align_s", "s/read"},
        {"genomics.dataset_s", "s"},
        {"service.submit_rtt_p50_s", "s"},
        {"service.queue_wait_p50_s", "s"},
        {"service.queue_wait_p90_s", "s"},
        {"service.run_p50_s", "s"},
        {"gen.lag_p90_s", "s"},
        {"arch.kbps.bonito_gpu", "kbp/s"},
        {"arch.kbps.ideal", "kbp/s"},
        {"arch.kbps.rvw", "kbp/s"},
        {"arch.kbps.rsa", "kbp/s"},
        {"arch.kbps.rsa_kd", "kbp/s"},
        {"arch.energy_uj_per_kb.bonito_gpu", "uJ/kb"},
        {"arch.energy_uj_per_kb.ideal", "uJ/kb"},
        {"arch.energy_uj_per_kb.rvw", "uJ/kb"},
        {"arch.energy_uj_per_kb.rsa", "uJ/kb"},
        {"arch.energy_uj_per_kb.rsa_kd", "uJ/kb"},
        {"arch.area_mm2", "mm2"},
        {"other_s", "s/read"},
        {"trace_overhead_frac", "fraction"},
    };
    return columns;
}

} // namespace

void
LayerTable::set(const std::string& name, double value)
{
    for (const Column& c : schema()) {
        if (name == c.name) {
            values_[name] = value;
            return;
        }
    }
    throw std::logic_error("LayerTable: no per-layer metric " + name);
}

void
LayerTable::emit(Report& report) const
{
    for (const Column& c : schema()) {
        const auto it = values_.find(c.name);
        report.metric(c.name, it == values_.end() ? 0.0 : it->second,
                      c.unit);
    }
}

} // namespace perfbench
