include Hwpat_base.Json
