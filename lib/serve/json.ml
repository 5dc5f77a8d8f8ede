include Robust.Json
